// Command loadbench is the serving-path benchmark: it stands up the real
// Docker-registry and Gear-registry HTTP handlers on loopback listeners
// in this process, drives real daemon, store, viewer and pusher clients
// through them in a closed loop, and prints every metric BENCHMARK.json
// names. Run it from the repository root. See README.md.
//
//	go run ./loadbench -workload deploy_cold -seed 1 -seconds 10 -trace 0
//	go run ./loadbench -repeat 3 > a.txt      # all five workloads, medians and quartiles
//	go run ./loadbench -compare a.txt b.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

// traceDir is where the traced run writes trace-<workload>.jsonl.
const traceDir = "loadbench/out"

func main() {
	cfg := config{sizes: fullSizes, traceDir: traceDir}
	var (
		seconds = flag.Float64("seconds", 10, "how long the measured window is meant to last; sets its op count")
		smoke   = flag.Bool("smoke", false, "small inputs and a fixed few ops: seconds, not minutes")
		compare = flag.Bool("compare", false, "compare the outputs of two suite runs given as arguments; exit 1 if any bound is breached")
		repeat  = flag.Int("repeat", 1, "with no -workload: run the suite this many times and report medians and quartiles")
		name    = flag.String("workload", "", "run this one workload in this process (default: all five, one child process each)")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated schedule")
	// Not a boolean flag: the driver passes the value as its own argument.
	flag.Func("trace", "1: the per-layer run (decorators, spans, probes); 0: the end-to-end run (default)", func(v string) (err error) {
		cfg.trace, err = strconv.ParseBool(v)
		return err
	})
	flag.Parse()
	var err error
	if cfg.cat, err = loadCatalog(benchmarkFile); err != nil {
		fatal(err)
	}
	if *smoke {
		cfg.sizes = smokeSizes
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files, got %d", flag.NArg()))
		}
		breaches, err := compareFiles(os.Stdout, cfg.cat, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if breaches > 0 {
			os.Exit(1)
		}
	case *name != "":
		def, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		cfg.ops = def.windowOps(*seconds)
		if *smoke {
			cfg.ops = smokeOps
		}
		res, err := runWorkload(cfg, def, os.Stdout)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runSuite(cfg, *seconds, *smoke, *repeat)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadbench:", err)
	os.Exit(2)
}
