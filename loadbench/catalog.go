package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is where BENCHMARK.json lives relative to the directory
// the command is run from: the repository root.
const benchmarkFile = "BENCHMARK.json"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// catalog is every metric the harness prints, read from BENCHMARK.json
// so that the file the driver reads is the only list there is.
type catalog struct {
	// endToEnd come from the plain run; bound is the relative worsening
	// that counts as a regression.
	endToEnd []metricDef
	// perLayer come from the traced run: span self times, counts at the
	// decorated boundaries, program-counter deltas and layer probes. A
	// layer a workload never enters reports 0.
	perLayer []metricDef
}

// loadCatalog reads the metric lists from the benchmark file at path
// and checks that it names the workloads this program has.
func loadCatalog(path string) (catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return catalog{}, fmt.Errorf("%w (run loadbench from the repository root)", err)
	}
	var file struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return catalog{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Workloads) != len(workloads) {
		return catalog{}, fmt.Errorf("%s names %d workloads, loadbench has %d", path, len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			return catalog{}, fmt.Errorf("%s: workload %d is %q, loadbench has %q", path, i, w.Name, workloads[i].name)
		}
	}
	return catalog{endToEnd: file.EndToEnd, perLayer: file.PerLayer}, nil
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// measurements fills a result's metrics from defs and the measured
// values; a name missing from values reports 0 (a layer the workload
// never enters).
func measurements(defs []metricDef, values map[string]float64) map[string]measurement {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		out[d.Name] = measurement{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
