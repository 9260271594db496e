package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
)

// The smoke run: every workload, plain and traced, at a size the test
// suite can afford. It checks that every metric BENCHMARK.json names is
// printed exactly once with a unit and a finite value, and that the
// workload assertions hold (runWorkload reports them through Correct).
func TestSmoke(t *testing.T) {
	cat := testCatalog(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := cat.endToEnd
			if traced {
				defs = cat.perLayer
			}
			cfg := config{seed: 1, ops: smokeOps, trace: traced, sizes: smokeSizes, cat: cat, traceDir: t.TempDir()}
			var log bytes.Buffer
			res, err := runWorkload(cfg, w, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < smokeOps {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
					continue
				}
				if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v %q, want a finite value in %q", w.name, traced, d.Name, m.Value, m.Unit, d.Unit)
				}
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.Name) + `\s`)
				if n := len(line.FindAllString(log.String(), -1)); n != 1 {
					t.Errorf("%s traced=%v: %s printed %d times, want once", w.name, traced, d.Name, n)
				}
			}
			if !traced {
				for _, d := range defs {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			if strings.Contains(log.String(), "FAILED") {
				t.Errorf("%s traced: %s", w.name, log.String())
			}
			switch w.name {
			case "deploy_warm":
				if v := res.Metrics["gearregistry.download_per_op"].Value; v != 0 {
					t.Errorf("deploy_warm made %v Gear downloads per op, want 0", v)
				}
			case "read_range":
				if v := res.Metrics["store.range_reads_per_op"].Value; v != 1 {
					t.Errorf("read_range made %v range reads per op, want 1", v)
				}
			case "read_chunked":
				if v := res.Metrics["store.window_peak_bytes"].Value; v <= 0 || v > chunkWindowBytes {
					t.Errorf("chunk window peak %v outside (0, %d]", v, chunkWindowBytes)
				}
			}
		}
	}
}
