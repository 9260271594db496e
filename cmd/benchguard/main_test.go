package main

import (
	"strings"
	"testing"
)

const sampleOut = `goos: linux
goarch: amd64
pkg: github.com/gear-image/gear/internal/hashing
BenchmarkRegistryAssign-8      	    5000	    250000 ns/op	 4184.10 MB/s	    2048 B/op	      40 allocs/op
BenchmarkRegistryAssignAll/workers=4-8 	   10000	    120000 ns/op	    1024 B/op	      20 allocs/op
BenchmarkNoMem-8               	  100000	     10000 ns/op
PASS
`

func TestParse(t *testing.T) {
	res, err := parse(strings.NewReader(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := res["BenchmarkRegistryAssign"]
	if !ok || a.BytesPerOp != 2048 || a.AllocsPerOp != 40 || !a.hasBytes || !a.hasAllocs {
		t.Errorf("BenchmarkRegistryAssign = %+v, %v", a, ok)
	}
	sub, ok := res["BenchmarkRegistryAssignAll/workers=4"]
	if !ok || sub.AllocsPerOp != 20 {
		t.Errorf("subbenchmark = %+v, %v", sub, ok)
	}
	nm, ok := res["BenchmarkNoMem"]
	if !ok || nm.hasBytes || nm.hasAllocs {
		t.Errorf("no-benchmem line = %+v, %v; want present without alloc metrics", nm, ok)
	}
}

func TestParseKeepsMinimumAcrossCounts(t *testing.T) {
	out := `BenchmarkX-8 100 50 ns/op 300 B/op 9 allocs/op
BenchmarkX-8 100 40 ns/op 200 B/op 11 allocs/op
`
	res, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	x := res["BenchmarkX"]
	if x.BytesPerOp != 200 || x.AllocsPerOp != 9 {
		t.Errorf("min-merge = %+v, want B/op 200, allocs/op 9", x)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]result{
		"BenchmarkStable":  {BytesPerOp: 10000, AllocsPerOp: 100, hasBytes: true, hasAllocs: true},
		"BenchmarkWorse":   {BytesPerOp: 10000, AllocsPerOp: 100, hasBytes: true, hasAllocs: true},
		"BenchmarkTiny":    {BytesPerOp: 16, AllocsPerOp: 2, hasBytes: true, hasAllocs: true},
		"BenchmarkRemoved": {BytesPerOp: 1, AllocsPerOp: 1, hasBytes: true, hasAllocs: true},
	}
	cur := map[string]result{
		// Within threshold.
		"BenchmarkStable": {BytesPerOp: 11000, AllocsPerOp: 110, hasBytes: true, hasAllocs: true},
		// 2x the bytes: regression.
		"BenchmarkWorse": {BytesPerOp: 20000, AllocsPerOp: 100, hasBytes: true, hasAllocs: true},
		// Doubled but inside absolute slack: not a regression.
		"BenchmarkTiny": {BytesPerOp: 32, AllocsPerOp: 4, hasBytes: true, hasAllocs: true},
		"BenchmarkNew":  {BytesPerOp: 5, AllocsPerOp: 1, hasBytes: true, hasAllocs: true},
	}
	var sb strings.Builder
	if !compare(&sb, base, cur, 0.20) {
		t.Error("compare = ok, want regression")
	}
	out := sb.String()
	for _, want := range []string{
		"REGRESSED B/op BenchmarkWorse",
		"ok       BenchmarkStable",
		"ok       BenchmarkTiny",
		"MISSING  BenchmarkRemoved",
		"NEW      BenchmarkNew",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Reverting the regression is not enough: an enrolled benchmark that
	// did not run is a guard checking nothing, and fails on its own.
	cur["BenchmarkWorse"] = base["BenchmarkWorse"]
	sb.Reset()
	if !compare(&sb, base, cur, 0.20) || !strings.Contains(sb.String(), "FAIL: 1 enrolled benchmarks did not run") {
		t.Errorf("compare with a MISSING row = ok, want failure:\n%s", sb.String())
	}

	// With the baseline refreshed the run passes; NEW stays informational.
	delete(base, "BenchmarkRemoved")
	sb.Reset()
	if compare(&sb, base, cur, 0.20) || !strings.Contains(sb.String(), "NEW      BenchmarkNew") {
		t.Errorf("compare after refresh = failure, want ok with a NEW row:\n%s", sb.String())
	}
}
