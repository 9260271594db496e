package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 3, 2, 4})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("single value: %v %v %v", q1, med, q3)
	}
}

func TestCompareFlagsOnlyBreaches(t *testing.T) {
	cat := testCatalog(t)
	endToEnd := cat.endToEnd
	mk := func(scale map[string]float64) suiteResult {
		s := suiteResult{Runs: 1, Workloads: map[string]workloadSummary{}}
		for _, w := range workloads {
			ws := workloadSummary{Correct: true, Attempted: 10, Metrics: map[string]summary{}}
			for _, d := range endToEnd {
				v := 100.0
				if f, ok := scale[w.name+"/"+d.Name]; ok {
					v *= f
				}
				ws.Metrics[d.Name] = summary{Value: v, Unit: d.Unit}
			}
			s.Workloads[w.name] = ws
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s suiteResult) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bound := make(map[string]float64)
	for _, d := range endToEnd {
		bound[d.Name] = d.Bound
	}
	a := write("a.json", mk(nil))
	// Lower is better, however far. Twice the bound the wrong way
	// breaches; half the bound does not.
	b := write("b.json", mk(map[string]float64{
		"push/wire_kb_per_op":         0.5,
		"deploy_cold/alloc_kb_per_op": 1 + 2*bound["alloc_kb_per_op"],
		"deploy_cold/peak_heap_mb":    1 + bound["peak_heap_mb"]/2,
		"read_range/setup_s":          1 + 2*bound["setup_s"],
	}))
	var out bytes.Buffer
	breaches, err := compareFiles(&out, cat, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if breaches != 2 {
		t.Errorf("breaches = %d, want 2 (deploy_cold alloc_kb_per_op, read_range setup_s)\n%s", breaches, out.String())
	}
	if n := strings.Count(out.String(), "BREACH"); n != 2 {
		t.Errorf("printed %d BREACH lines, want 2", n)
	}
	if same, err := compareFiles(&out, cat, a, a); err != nil || same != 0 {
		t.Errorf("a file against itself: %d breaches, err %v", same, err)
	}
}
