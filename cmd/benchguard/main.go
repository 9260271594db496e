// Command benchguard compares `go test -bench -benchmem` output against
// a committed baseline and fails on allocation regressions.
//
// Usage:
//
//	go test -bench . -benchmem ./... | tee current.txt
//	benchguard -baseline scripts/bench_baseline.txt -current current.txt
//
// Only the allocation columns (B/op, allocs/op) are compared: they are
// deterministic properties of the code, unlike ns/op, which shifts with
// the machine CI happens to land on. A benchmark regresses when its
// current value exceeds baseline*(1+threshold) plus a small absolute
// slack (so a 3-alloc benchmark going to 4 is not a failure). A baseline
// row with no counterpart in the current run fails too — a guard that
// passes while checking nothing is worse than none — so dropping or
// renaming an enrolled benchmark takes a baseline refresh in the same
// change. A benchmark only in the current run is reported and passes;
// refreshing the baseline is how it gets enrolled.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		baseline  = flag.String("baseline", "", "committed baseline benchmark output")
		current   = flag.String("current", "", "freshly produced benchmark output")
		threshold = flag.Float64("threshold", 0.20, "fractional regression allowed per metric")
	)
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline and -current are required")
		os.Exit(2)
	}
	base, err := parseFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	cur, err := parseFile(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if compare(os.Stdout, base, cur, *threshold) {
		os.Exit(1)
	}
}

// result is one benchmark's allocation metrics.
type result struct {
	BytesPerOp  float64
	AllocsPerOp float64
	// has marks which metrics the line actually carried (benchmarks run
	// without -benchmem have neither).
	hasBytes, hasAllocs bool
}

func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// parse reads benchmark lines from standard `go test -bench` output.
// Repeated runs of one benchmark (e.g. -count=3) keep the minimum per
// metric — the least noisy estimate of the code's true cost.
func parse(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, res, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		prev, seen := out[name]
		if !seen {
			out[name] = res
			continue
		}
		if res.hasBytes && (!prev.hasBytes || res.BytesPerOp < prev.BytesPerOp) {
			prev.BytesPerOp, prev.hasBytes = res.BytesPerOp, true
		}
		if res.hasAllocs && (!prev.hasAllocs || res.AllocsPerOp < prev.AllocsPerOp) {
			prev.AllocsPerOp, prev.hasAllocs = res.AllocsPerOp, true
		}
		out[name] = prev
	}
	return out, sc.Err()
}

// parseLine parses one "BenchmarkX-8  100  12 ns/op  34 B/op  5 allocs/op"
// line. The GOMAXPROCS suffix is stripped so baselines compare across
// machines with different core counts.
func parseLine(line string) (string, result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var res result
	// Metrics come as "<value> <unit>" pairs after the iteration count.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch fields[i+1] {
		case "B/op":
			res.BytesPerOp, res.hasBytes = v, true
		case "allocs/op":
			res.AllocsPerOp, res.hasAllocs = v, true
		}
	}
	return name, res, true
}

// Absolute slack under which a metric increase is never a regression:
// tiny benchmarks jitter by an allocation or two depending on pool and
// map warm-up, and that noise must not fail CI.
const (
	slackBytes  = 256
	slackAllocs = 4
)

// regressed reports whether cur exceeds base by more than the threshold
// fraction plus the absolute slack.
func regressed(base, cur, threshold, slack float64) bool {
	return cur > base*(1+threshold)+slack
}

// compare prints a per-benchmark verdict table and returns true if any
// benchmark regressed or is missing from the current run.
func compare(w io.Writer, base, cur map[string]result, threshold float64) bool {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	bad, missing := false, 0
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(w, "MISSING  %s (in baseline, not in current run)\n", name)
			missing++
			continue
		}
		verdict := "ok"
		if b.hasBytes && c.hasBytes && regressed(b.BytesPerOp, c.BytesPerOp, threshold, slackBytes) {
			verdict = "REGRESSED B/op"
			bad = true
		}
		if b.hasAllocs && c.hasAllocs && regressed(b.AllocsPerOp, c.AllocsPerOp, threshold, slackAllocs) {
			if verdict == "ok" {
				verdict = "REGRESSED allocs/op"
			} else {
				verdict += "+allocs/op"
			}
			bad = true
		}
		fmt.Fprintf(w, "%-8s %s: B/op %.0f -> %.0f, allocs/op %.0f -> %.0f\n",
			verdict, name, b.BytesPerOp, c.BytesPerOp, b.AllocsPerOp, c.AllocsPerOp)
	}
	var fresh []string
	for name := range cur {
		if _, ok := base[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		fmt.Fprintf(w, "NEW      %s (not in baseline; refresh scripts/bench_baseline.txt to enroll)\n", name)
	}
	switch {
	case bad:
		fmt.Fprintf(w, "\nFAIL: allocation regression beyond %.0f%% threshold\n", threshold*100)
	case missing > 0:
		fmt.Fprintf(w, "\nFAIL: %d enrolled benchmarks did not run; if they were dropped or renamed on purpose, refresh scripts/bench_baseline.txt\n", missing)
	default:
		fmt.Fprintf(w, "\nok: %d benchmarks within %.0f%% of baseline\n", len(names), threshold*100)
	}
	return bad || missing > 0
}
