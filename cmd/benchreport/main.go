// Command benchreport regenerates the tables and figures of the Gear
// paper's evaluation on the synthetic corpus and prints the same rows
// the paper reports, annotated with the paper's own numbers.
//
// Usage (-h lists the experiment ids):
//
//	benchreport -exp all                 # every experiment, calibrated scale
//	benchreport -exp fig9 -quick         # one experiment, reduced scale
//	benchreport -exp table2 -scale 0.5   # custom scale
//
// Standard output carries only seed-determined virtual-time values, so
//
//	benchreport -exp all > benchreport_output.txt
//
// regenerates the committed full-scale report byte for byte; the run's
// wall time goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/gear-image/gear/internal/experiments"
	"github.com/gear-image/gear/internal/telemetry"
)

func main() {
	// -h has already printed the usage; it is not a failure.
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+", or all)")
		jsonOut    = fs.Bool("json", false, "emit the result as JSON instead of the text report (single experiment only)")
		quick      = fs.Bool("quick", false, "reduced corpus for a fast run")
		scale      = fs.Float64("scale", 0, "override corpus scale (default 1.0, or the quick preset)")
		seed       = fs.Int64("seed", 0, "override corpus seed")
		versions   = fs.Int("versions", 0, "cap versions per series (0 = all)")
		series     = fs.Int("series-per-category", 0, "cap series per category (0 = all)")
		metrics    = fs.String("metrics", "", "write the run's unified telemetry snapshot (JSON) to this file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run (pprof format) to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile at exit (pprof format) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "benchreport: memprofile:", err)
				return
			}
			defer f.Close()
			// The allocs profile covers everything allocated since program
			// start, which is what "where do the hot paths allocate" needs;
			// the heap profile would only show what is still live.
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "benchreport: memprofile:", err)
			}
		}()
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *versions > 0 {
		cfg.VersionsPerSeries = *versions
	}
	if *series > 0 {
		cfg.SeriesPerCategory = *series
	}
	if *metrics != "" {
		// One registry across the whole run: every daemon the experiments
		// build publishes into it, and the snapshot lands in one artifact.
		cfg.Telemetry = telemetry.NewRegistry()
		defer func() {
			f, err := os.Create(*metrics)
			if err != nil {
				fmt.Fprintln(stderr, "benchreport: metrics:", err)
				return
			}
			defer f.Close()
			if err := telemetry.EncodeSnapshot(f, cfg.Telemetry.Snapshot()); err != nil {
				fmt.Fprintln(stderr, "benchreport: metrics:", err)
			}
		}()
	}

	if *jsonOut {
		if *exp == "all" {
			return fmt.Errorf("-json requires a single experiment id")
		}
		res, err := experiments.Result(*exp, cfg)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Fprintf(stdout, "gear benchreport: exp=%s scale=%g seed=%d versions=%d series/cat=%d\n",
		*exp, cfg.Scale, cfg.Seed, cfg.VersionsPerSeries, cfg.SeriesPerCategory)
	start := time.Now()
	if err := experiments.Run(*exp, cfg, stdout); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "completed in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
