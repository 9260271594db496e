package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// workloadDef names a workload; BENCHMARK.json says why it exists.
type workloadDef struct {
	name string
	// rate is the ops per second the workload ran at on the two-core box
	// its windows were sized on. A window is a fixed number of ops, so
	// that what the program counts repeats exactly; the rate turns the
	// seconds a run is given into that number.
	rate float64
	// exact: the workload's request counts depend only on the op
	// sequence, so the traced and untraced paths must agree exactly.
	exact bool
	setup func(cfg config, tr *tracer) (scenario, error)
}

var workloads = []workloadDef{
	{"deploy_cold", 190, true, func(cfg config, tr *tracer) (scenario, error) { return setupDeploy(cfg, tr, false) }},
	{"deploy_warm", 950, true, func(cfg config, tr *tracer) (scenario, error) { return setupDeploy(cfg, tr, true) }},
	{"read_chunked", 350, false, func(cfg config, tr *tracer) (scenario, error) { return setupRead(cfg, tr, true) }},
	{"read_range", 4700, true, func(cfg config, tr *tracer) (scenario, error) { return setupRead(cfg, tr, false) }},
	{"push", 30, false, func(cfg config, tr *tracer) (scenario, error) { return setupPush(cfg, tr) }},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// windowOps is the length in ops of a window meant to last seconds.
func (d workloadDef) windowOps(seconds float64) int { return max(int(d.rate*seconds), numClients) }

const (
	// setupRuns is how many times a plain run sets the workload up;
	// setup_s is the median, so that one slow set-up does not read as a
	// regression.
	setupRuns = 5
	// warmupShare of the window's op count runs first and is discarded.
	warmupShare = 0.1
	// slicesPerWindow is how many slices a measured window is cut into.
	slicesPerWindow = 10
	// tracePairs is how many stretches the traced run cuts its two
	// windows into, to run them alternately.
	tracePairs = 25
	// maxTraceOverhead is the slowdown by tracing above which the traced
	// run warns that its span times describe the tracing too.
	maxTraceOverhead = 1.10
)

// counts returns how many ops each client executes in the warm-up and in
// a window that is share of cfg.ops long. A workload that runs whole
// rounds gets whole rounds, the first of them as its warm-up.
func counts(cfg config, sc scenario, share float64) (warm, window int) {
	window = max(int(math.Ceil(float64(cfg.ops)*share/numClients)), 1)
	warm = max(int(float64(window)*warmupShare), 1)
	if sc.wholeRounds() {
		round := sc.ops() / numClients
		window = (window + round - 1) / round * round
		warm = round
	}
	return warm, window
}

// verify runs the loop on under the oracle, one op for every oracleShare
// of a window of perClient. A workload of whole rounds needs none: the
// end of every round is its oracle.
func (l *loop) verify(perClient int) (*window, error) {
	if l.sc.wholeRounds() {
		return &window{}, nil
	}
	return l.run(max(perClient/oracleShare, 1), 1, true)
}

// runWorkload runs one workload in this process and prints every metric
// by name with its unit to log.
func runWorkload(cfg config, def workloadDef, log io.Writer) (result, error) {
	runtime.GOMAXPROCS(numClients)
	fmt.Fprintf(log, "workload %s  seed %d  window %d ops  closed loop, %d clients, GOMAXPROCS %d\n",
		def.name, cfg.seed, cfg.ops, numClients, numClients)
	fmt.Fprintf(log, "registries and clients share this process; traffic crosses the host loopback, not a real link\n")
	if cfg.trace {
		return runTraced(cfg, def, log)
	}
	return runPlain(cfg, def, log)
}

// runPlain is the end-to-end run: no tracer, no client decorators.
func runPlain(cfg config, def workloadDef, log io.Writer) (result, error) {
	var sc scenario
	var setups []time.Duration
	for k := 0; k < setupRuns; k++ {
		if sc != nil {
			sc.close()
			sc = nil // let the collector have it before the next one is built
			settle()
		}
		start := time.Now()
		var err error
		if sc, err = def.setup(cfg, nil); err != nil {
			return result{}, fmt.Errorf("set up %s: %w", def.name, err)
		}
		setups = append(setups, time.Since(start))
	}
	defer sc.close()
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })

	l, err := newLoop(sc, def.name, nil)
	if err != nil {
		return result{}, err
	}
	warm, per := counts(cfg, sc, 1)
	if _, err := l.run(warm, 1, false); err != nil {
		return result{}, err
	}
	settle()
	before := readCounters(sc)
	w, err := l.run(per, slicesPerWindow, false)
	if err != nil {
		return result{}, err
	}
	ctr := readCounters(sc).since(before)
	checked, err := l.verify(per)
	if err != nil {
		return result{}, err
	}

	res := result{Attempted: w.ops() + checked.ops(), Failed: w.failed + checked.failed}
	logFailure(log, w.firstErr)
	logFailure(log, checked.firstErr)
	res.Failed += logFailure(log, sc.check(ctr))
	logHost(log, w)

	values := endToEndValues(w, ctr, sc.poolStats(), setups[len(setups)/2])
	res.Metrics = measurements(cfg.cat.endToEnd, values)
	res.Correct = res.Failed == 0
	printMetrics(log, cfg.cat.endToEnd, res.Metrics, w.ops())
	// What the clock said is printed for the reader, not reported: on a
	// shared host it does not repeat within a tenth, so these are
	// per-layer metrics and the traced run reports them.
	fmt.Fprintf(log, "by this host's clock, not reported:\n")
	clock := timeValues(w)
	var clockDefs []metricDef
	for _, d := range cfg.cat.perLayer {
		if _, ok := clock[d.Name]; ok {
			clockDefs = append(clockDefs, d)
		}
	}
	printMetrics(log, clockDefs, measurements(clockDefs, clock), w.ops())
	return res, nil
}

// logFailure prints err, if any, and returns how many failures it is.
func logFailure(log io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(log, "FAILED: %v\n", err)
	return 1
}

// logHost says how much of the window the hypervisor took from this
// machine. The metrics are printed as measured either way.
func logHost(log io.Writer, w *window) {
	note := ""
	if r := w.stealRatio(); r > disturbedSteal {
		note = "  DISTURBED: the time-based metrics of this run read worse than the program is"
	}
	fmt.Fprintf(log, "host: stolen time was %.3f of the process's CPU time during the window%s\n", w.stealRatio(), note)
}

// layerMetric names the per-layer metric holding each span layer's time
// per op, in microseconds.
var layerMetric = map[string]string{
	layerDeploy:    "dockersim.deploy_self_us",
	layerDockerCli: "registry.client_us",
	layerDockerSrv: "registry.handler_us",
	layerGearCli:   "gearregistry.client_us",
	layerGearSrv:   "gearregistry.handler_us",
	layerWire:      "wire.roundtrip_us",
	layerViewer:    "viewer.read_self_us",
	layerConvert:   "convert.convert_us",
	layerPush:      "convert.push_us",
}

// runTraced is the per-layer run. The workload is set up twice, once
// plain and once with the decorators installed, and the two run the same
// ops in alternating stretches, so that what the host does to one side
// it does to the other. Each side's window is half the run's length.
// The layer probes follow.
func runTraced(cfg config, def workloadDef, log io.Writer) (result, error) {
	ref, err := def.setup(cfg, nil)
	if err != nil {
		return result{}, fmt.Errorf("set up %s: %w", def.name, err)
	}
	defer ref.close()
	tr := newTracer()
	sc, err := def.setup(cfg, tr)
	if err != nil {
		return result{}, fmt.Errorf("set up %s traced: %w", def.name, err)
	}
	defer sc.close()
	lr, err := newLoop(ref, def.name, nil)
	if err != nil {
		return result{}, err
	}
	lt, err := newLoop(sc, def.name, tr)
	if err != nil {
		return result{}, err
	}

	warm, per := counts(cfg, ref, 0.5)
	for _, l := range []*loop{lr, lt} {
		if _, err := l.run(warm, 1, false); err != nil {
			return result{}, err
		}
	}
	tr.reset()
	stretch := (per + tracePairs - 1) / tracePairs
	if ref.wholeRounds() {
		stretch = ref.ops() / numClients
	}
	refBefore, scBefore := readCounters(ref), readCounters(sc)
	wr, wt := &window{}, &window{}
	for done, k := 0, 0; done < per; done, k = done+stretch, k+1 {
		n := min(stretch, per-done)
		sides := [2]struct {
			l *loop
			w *window
		}{{lr, wr}, {lt, wt}}
		if k%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, side := range sides {
			w, err := side.l.run(n, 1, false)
			if err != nil {
				return result{}, err
			}
			side.w.add(w)
		}
	}
	spans := tr.snapshot()
	refCtr, ctr := readCounters(ref).since(refBefore), readCounters(sc).since(scBefore)

	res := result{Attempted: wr.ops() + wt.ops(), Failed: wr.failed + wt.failed}
	logFailure(log, wr.firstErr)
	logFailure(log, wt.firstErr)
	for _, l := range []*loop{lr, lt} {
		checked, err := l.verify(per)
		if err != nil {
			return result{}, err
		}
		res.Attempted += checked.ops()
		res.Failed += checked.failed
		logFailure(log, checked.firstErr)
	}
	res.Failed += logFailure(log, ref.check(refCtr))
	res.Failed += logFailure(log, sc.check(ctr))
	logHost(log, wr)

	values := counterValues(wt, ctr)
	lay := analyze(spans)
	for layer, metric := range layerMetric {
		values[metric] = float64(lay.byLayer[layer]) / 1e3 / float64(max(lay.ops, 1))
	}
	values["trace.unattributed_share"] = median(lay.gapShares)
	values["trace.overhead_ratio"] = wt.slowdown(wr)
	for k, v := range timeValues(wr) { // the untraced side
		values[k] = v
	}

	if lay.ops != wt.ops() {
		res.Failed += logFailure(log, fmt.Errorf("trace holds %d op spans for %d ops", lay.ops, wt.ops()))
	}
	if share := values["trace.unattributed_share"]; share > 0.02 {
		res.Failed += logFailure(log, fmt.Errorf("layer spans leave %.1f%% of the median op's time unattributed, over 2%%", share*100))
	}
	if r := values["trace.overhead_ratio"]; r > maxTraceOverhead {
		// Not a failure: on a shared host the ratio itself varies by a
		// twentieth from run to run, which reaches the limit.
		fmt.Fprintf(log, "WARNING: tracing made ops %.2f times slower, over %.2f: repeat the run before trusting its span times\n", r, maxTraceOverhead)
	}
	if def.exact {
		res.Failed += logFailure(log, parity(wr, wt, refCtr, ctr))
	}

	in, err := sc.probeInput()
	if err != nil {
		return result{}, err
	}
	probes, err := runProbes(in, cfg.sizes.probeBudget)
	if err != nil {
		return result{}, err
	}
	for k, v := range probes {
		values[k] = v
	}
	values["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	path, err := writeTrace(cfg.traceDir, def.name, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "trace: %d spans of %d ops in %s\n", len(spans), lay.ops, path)

	res.Metrics = measurements(cfg.cat.perLayer, values)
	res.Correct = res.Failed == 0
	printMetrics(log, cfg.cat.perLayer, res.Metrics, wr.ops())
	return res, nil
}

// parity is the path-parity guard: decorators that changed which verbs
// the store uses would change how many requests the same ops make.
func parity(plain, traced *window, plainCtr, tracedCtr counters) error {
	if plain.perClient != traced.perClient {
		return fmt.Errorf("path parity: traced run made %v ops per client, untraced %v", traced.perClient, plain.perClient)
	}
	var errs []error
	if a, b := plainCtr.boundary.gearRequests, tracedCtr.boundary.gearRequests; a != b {
		errs = append(errs, fmt.Errorf("path parity: %d Gear registry requests untraced, %d traced", a, b))
	}
	if a, b := plainCtr.client.Counter("store.remote.objects"), tracedCtr.client.Counter("store.remote.objects"); a != b {
		errs = append(errs, fmt.Errorf("path parity: %d remote objects untraced, %d traced", a, b))
	}
	return errors.Join(errs...)
}

func printMetrics(log io.Writer, defs []metricDef, got map[string]measurement, samples int) {
	for _, d := range defs {
		m := got[d.Name]
		note := ""
		switch d.Name {
		case "op_p50_ms", "op_p95_ms", "tail.op_p99_ms":
			note = fmt.Sprintf("  (n=%d ops)", samples)
		}
		fmt.Fprintf(log, "%-34s %14.4f %s%s\n", d.Name, m.Value, m.Unit, note)
	}
}
