package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// smokeOps is the measured op count of a -smoke run.
const smokeOps = 24

// workloadTimeout is the hard limit on one workload's child process; a
// run that exceeds it is marked failed.
const workloadTimeout = 90 * time.Second

// summary is one metric over the suite's repeats: Value is the median.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

type workloadSummary struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// suiteResult is the last line a suite run prints: what -compare reads.
type suiteResult struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Runs      int                        `json:"runs"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

// runSuite runs all five workloads, each in its own child process,
// repeat times over, and prints each metric's median and quartiles, then
// all of it as one JSON object on the last line.
func runSuite(cfg config, seconds float64, smoke bool, repeat int) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	args := []string{"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.FormatBool(cfg.trace)}
	defs := cfg.cat.endToEnd
	if cfg.trace {
		defs = cfg.cat.perLayer
	}
	if smoke {
		args = append(args, "-smoke")
	}
	out := suiteResult{Seed: cfg.seed, Seconds: seconds, Trace: cfg.trace,
		Runs: repeat, Workloads: make(map[string]workloadSummary)}
	ok := true
	for _, def := range workloads {
		var runs []result
		for r := 0; r < repeat; r++ {
			res, err := runChild(self, append([]string{"-workload", def.name}, args...))
			if err != nil {
				fmt.Printf("%s run %d: FAILED: %v\n", def.name, r+1, err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			runs = append(runs, res)
		}
		ws := summarize(defs, runs)
		out.Workloads[def.name] = ws
		fmt.Printf("\n%s  (%d of %d runs, %d ops attempted, %d failed)\n", def.name, len(runs), repeat, ws.Attempted, ws.Failed)
		for _, d := range defs {
			m := ws.Metrics[d.Name]
			fmt.Printf("  %-34s %14.4f %-6s q1 %.4f  q3 %.4f\n", d.Name, m.Value, m.Unit, m.Q1, m.Q3)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Printf("\n%s\n", line)
	return ok, nil
}

// runChild runs one workload in a child process and parses the result
// object on the last line of its output.
func runChild(self string, args []string) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if ctx.Err() != nil {
		return result{}, fmt.Errorf("no result within %s", workloadTimeout)
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return result{}, err
	}
	var res result
	if jerr := json.Unmarshal(lastLine(stdout), &res); jerr != nil {
		return result{}, fmt.Errorf("child printed no result (%v): %w", err, jerr)
	}
	return res, nil
}

// lastLine is where a run prints its result.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// summarize folds the repeats of one workload into medians and quartiles.
func summarize(defs []metricDef, runs []result) workloadSummary {
	ws := workloadSummary{Correct: len(runs) > 0, Metrics: make(map[string]summary)}
	for _, r := range runs {
		ws.Correct = ws.Correct && r.Correct
		ws.Attempted += r.Attempted
		ws.Failed += r.Failed
	}
	for _, d := range defs {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[d.Name].Value)
		}
		q1, med, q3 := quartiles(vals)
		ws.Metrics[d.Name] = summary{Value: med, Unit: d.Unit, Q1: q1, Q3: q3}
	}
	return ws
}

// quartiles returns the first quartile, median and third quartile of
// vals by linear interpolation between order statistics.
func quartiles(vals []float64) (q1, med, q3 float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

// compareFiles prints, per workload and end-to-end metric, how much
// worse b is than a relative to the metric's bound, and returns the
// number of bounds breached. Two suites of traced runs are compared
// metric by metric too, but per-layer metrics have no bound to breach.
func compareFiles(w io.Writer, cat catalog, pathA, pathB string) (int, error) {
	a, err := readSuite(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return 0, err
	}
	if a.Trace != b.Trace {
		return 0, fmt.Errorf("%s and %s: one is a traced suite and one is not", pathA, pathB)
	}
	defs := cat.endToEnd
	if a.Trace {
		defs = cat.perLayer
	}
	breaches := 0
	fmt.Fprintf(w, "%-13s %-32s %14s %14s %9s %7s\n", "workload", "metric", pathA, pathB, "worse by", "bound")
	for _, def := range workloads {
		wa, okA := a.Workloads[def.name]
		wb, okB := b.Workloads[def.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-13s missing from one file  BREACH\n", def.name)
			breaches++
			continue
		}
		if wb.Failed > wa.Failed || (wa.Correct && !wb.Correct) {
			fmt.Fprintf(w, "%-13s %d failed ops, was %d  BREACH\n", def.name, wb.Failed, wa.Failed)
			breaches++
		}
		for _, d := range defs {
			va, vb := wa.Metrics[d.Name].Value, wb.Metrics[d.Name].Value
			if va == 0 && vb == 0 {
				continue // a layer the workload never enters
			}
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if d.Bound > 0 && worse > d.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-13s %-32s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n",
				def.name, d.Name, va, vb, worse*100, d.Bound*100, verdict)
		}
	}
	return breaches, nil
}

func readSuite(path string) (suiteResult, error) {
	var s suiteResult
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(lastLine(data), &s); err != nil {
		return s, fmt.Errorf("%s: last line is no suite result: %w", path, err)
	}
	return s, nil
}
