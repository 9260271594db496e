package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// Tests run in loadbench/; the command runs in the repository root.
const benchmarkFileFromHere = "../" + benchmarkFile

func testCatalog(t *testing.T) catalog {
	t.Helper()
	cat, err := loadCatalog(benchmarkFileFromHere)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// BENCHMARK.json is refused before a single run if it steps outside the
// limits its contract sets; they are checked here so that an edit finds
// out sooner.
func TestBenchmarkFileIsWithinItsLimits(t *testing.T) {
	data, err := os.ReadFile(benchmarkFileFromHere)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range file.Workloads {
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.Name, len(w.Why))
		}
	}
	cat := testCatalog(t)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, cat.endToEnd...), cat.perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed characters", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q named twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range cat.endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
