package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/telemetry"
)

// clockEpoch anchors every timestamp the harness takes, spans included.
var clockEpoch = time.Now()

func nanotime() int64 { return int64(time.Since(clockEpoch)) }

// oracleShare: after a window the loop runs on under the oracle for one
// op to every 16 the window measured. Checking inside the window would
// put the oracle's CPU time and allocation into the window's metrics.
const oracleShare = 16

// config is one run of one workload.
type config struct {
	seed     int64
	ops      int // length of the measured window in ops, both clients together
	trace    bool
	sizes    sizes
	cat      catalog
	traceDir string
}

// window is what the closed loop measured over a stretch of ops.
type window struct {
	durs      []int64 // latency of every op, in completion order
	perClient [numClients]int
	// byClient holds the same latencies in the order each client ran its
	// ops, which the schedule fixes: entry j of client c is the same op
	// in every window that began at the same place in the schedule.
	byClient [numClients][]int64
	failed   int
	firstErr error
	// slices cut the window into stretches measured on their own.
	slices []slice

	wire, payload int64 // summed opResults
	pushQueried   int64
	pushSkipped   int64 // already in the registry, or being uploaded by the other client
	pushUploaded  int64
}

func (w *window) ops() int { return len(w.durs) }

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// add appends what o measured after w.
func (w *window) add(o *window) {
	base := len(w.durs)
	w.durs = append(w.durs, o.durs...)
	for _, sl := range o.slices {
		sl.lo, sl.hi = sl.lo+base, sl.hi+base
		w.slices = append(w.slices, sl)
	}
	for c := range w.perClient {
		w.perClient[c] += o.perClient[c]
		w.byClient[c] = append(w.byClient[c], o.byClient[c]...)
	}
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.wire += o.wire
	w.payload += o.payload
	w.pushQueried += o.pushQueried
	w.pushSkipped += o.pushSkipped
	w.pushUploaded += o.pushUploaded
}

// percentile returns the q-quantile of the window's op latencies in
// milliseconds.
func (w *window) percentile(q float64) float64 { return percentileMs(w.durs, q) }

// percentileMs is the q-quantile of durs (nanoseconds) by nearest rank,
// in milliseconds.
func percentileMs(durs []int64, q float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(rank, 0)]) / 1e6
}

// counters are the program's own telemetry and the counts taken at the
// decorated boundaries: a reading, or the difference of two.
type counters struct {
	client, server telemetry.Snapshot
	boundary       wireCounts
}

func readCounters(sc scenario) counters {
	return counters{client: sc.clientCounters(), server: sc.serverCounters(), boundary: sc.wireCounts()}
}

// since returns what was counted after the reading prev; gauges keep
// their current value.
func (c counters) since(prev counters) counters {
	return counters{
		client:   c.client.Diff(prev.client),
		server:   c.server.Diff(prev.server),
		boundary: c.boundary.minus(prev.boundary),
	}
}

// slice is one stretch of a window: a tenth of its ops, or one round of
// a workload that runs whole rounds.
type slice struct {
	lo, hi   int   // the ops durs[lo:hi] ended in it
	from, to int64 // nanotime
	cpu      time.Duration
	// stolen is how long the hypervisor kept this machine's vCPUs from
	// running meanwhile. It is reported beside the metrics, never folded
	// into them: a run with much of it is disturbed, not slow.
	stolen   time.Duration
	alloc    uint64
	peakHeap uint64
}

// disturbedSteal is the stolen time, as a share of the process's CPU
// time, above which a window is reported as disturbed by the host.
const disturbedSteal = 0.05

// stealRatio is the window's stolen time over its CPU time.
func (w *window) stealRatio() float64 {
	var cpu, stolen time.Duration
	for _, sl := range w.slices {
		cpu += sl.cpu
		stolen += sl.stolen
	}
	if cpu <= 0 {
		return 0
	}
	return float64(stolen) / float64(cpu)
}

// timeValues derives the metrics of a window that are read off the
// clock. Latency percentiles are taken over all its ops; throughput and
// CPU time are measured per slice and the median over the slices is
// reported, so one burst of outside interference moves one slice, not
// the result.
func timeValues(w *window) map[string]float64 {
	var opsPerS, cpuMs []float64
	for _, sl := range w.slices {
		if n := float64(sl.hi - sl.lo); n > 0 {
			opsPerS = append(opsPerS, n/(float64(sl.to-sl.from)/1e9))
			cpuMs = append(cpuMs, float64(sl.cpu)/1e6/n)
		}
	}
	return map[string]float64{
		"ops_per_s":      median(opsPerS),
		"op_p50_ms":      w.percentile(0.50),
		"op_p95_ms":      w.percentile(0.95),
		"tail.op_p99_ms": w.percentile(0.99),
		"cpu_ms_per_op":  median(cpuMs),
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// loop is the closed loop over one scenario. It remembers where each
// client is in the schedule, so successive runs continue it: client c
// executes ops c, c+2, c+4… and starts over when it reaches the end.
type loop struct {
	sc   scenario
	name string
	tr   *tracer
	next [numClients]int
}

func newLoop(sc scenario, name string, tr *tracer) (*loop, error) {
	if sc.ops()%numClients != 0 {
		// The clients must reach the end of the schedule after the same
		// number of ops each, or one would wait there for the other.
		return nil, fmt.Errorf("%s: schedule of %d ops does not split evenly over %d clients", name, sc.ops(), numClients)
	}
	l := &loop{sc: sc, name: name, tr: tr}
	for c := range l.next {
		l.next[c] = c
	}
	return l, nil
}

// run has every client execute its next perClient ops back to back.
// Clients only meet where the schedule starts over. A workload that runs
// whole rounds is sliced by round; any other window is cut into slices
// of equal op counts. With verify every op is held against the oracle:
// such a run checks the program and measures nothing.
func (l *loop) run(perClient, slices int, verify bool) (*window, error) {
	sc := l.sc
	w := &window{}
	cutEvery := 0
	if !sc.wholeRounds() && slices > 1 {
		cutEvery = max(perClient*numClients/slices, 1)
	}
	sm := startSampler()
	var mu sync.Mutex // guards w and the sampler's cuts while clients run
	var left [numClients]int
	for c := range left {
		left[c] = perClient
	}
	if !sc.wholeRounds() {
		sm.begin(0)
	}
	for left[0] > 0 {
		if err := sc.beginRound(); err != nil {
			sm.stop()
			return nil, err
		}
		if sc.wholeRounds() {
			sm.begin(w.ops())
		}
		var wg sync.WaitGroup
		for c := 0; c < numClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for ; left[c] > 0 && l.next[c] < sc.ops(); l.next[c] += numClients {
					left[c]--
					x := &opCtx{tr: l.tr, client: c, verify: verify}
					if l.tr != nil {
						x.id = l.tr.id()
						x.cur.Store(x.id)
					}
					t0 := nanotime()
					res, err := sc.do(x, l.next[c])
					t1 := nanotime()
					if l.tr != nil {
						s := span{Op: x.id, ID: x.id, Layer: layerOp, Name: l.name, Start: t0, End: t1, Bytes: res.payload}
						if err != nil {
							s.Err = err.Error()
						}
						l.tr.record(s)
					}
					mu.Lock()
					w.durs = append(w.durs, t1-t0)
					w.perClient[c]++
					w.byClient[c] = append(w.byClient[c], t1-t0)
					w.wire += res.wire
					w.payload += res.payload
					w.pushQueried += int64(res.push.Queried)
					w.pushSkipped += int64(res.push.Skipped + res.push.Deduped)
					w.pushUploaded += int64(res.push.Uploaded())
					if err != nil {
						w.fail(err)
					}
					if n := w.ops(); cutEvery > 0 && n%cutEvery == 0 && n/cutEvery < slices {
						sm.end(n)
						sm.begin(n)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if sc.wholeRounds() {
			sm.end(w.ops())
		}
		if l.next[0] >= sc.ops() { // both clients are there: they run in step
			if err := sc.endRound(); err != nil {
				w.fail(err)
			}
			for c := range l.next {
				l.next[c] = c
			}
		}
	}
	if !sc.wholeRounds() {
		sm.end(w.ops())
	}
	w.slices = sm.stop()
	sc.quiesce()
	return w, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only on a bad selector or pointer; neither is
	// possible here, so its error carries no information.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTime is how long the hypervisor has kept this machine's vCPUs
// from running while they had work: the steal column of /proc/stat, in
// ticks of 10 ms. Where the file or the column is missing it reads 0.
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(fields) < 9 {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative bytes allocated on the heap.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapObjects is the heap occupied by live and not yet swept objects.
func heapObjects() uint64 { return readMetric("/memory/classes/heap/objects:bytes") }

// sampler measures slices: CPU time and allocation across each, and the
// largest heap seen during it, sampled every 10 ms.
type sampler struct {
	mu      sync.Mutex
	open    bool
	cur     slice
	cpu0    time.Duration
	stolen0 time.Duration
	alloc0  uint64
	slices  []slice
	quit    chan struct{}
	stopped chan struct{}
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(s.stopped)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.mu.Lock()
				if s.open {
					s.cur.peakHeap = max(s.cur.peakHeap, heapObjects())
				}
				s.mu.Unlock()
			case <-s.quit:
				return
			}
		}
	}()
	return s
}

// begin opens a slice whose first op will be number lo of the window.
func (s *sampler) begin(lo int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.open = true
	s.cur = slice{lo: lo, from: nanotime(), peakHeap: heapObjects()}
	s.cpu0, s.stolen0, s.alloc0 = cpuTime(), stolenTime(), heapAllocs()
}

// end closes the open slice after op number hi-1 of the window.
func (s *sampler) end(hi int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur.hi, s.cur.to = hi, nanotime()
	s.cur.cpu = cpuTime() - s.cpu0
	s.cur.stolen = stolenTime() - s.stolen0
	s.cur.alloc = heapAllocs() - s.alloc0
	s.cur.peakHeap = max(s.cur.peakHeap, heapObjects())
	s.slices = append(s.slices, s.cur)
	s.open = false
}

// stop ends the sampler and returns the slices once its goroutine is gone.
func (s *sampler) stop() []slice {
	close(s.quit)
	<-s.stopped
	return s.slices
}

// settle gives every window the same starting heap.
func settle() { runtime.GC() }

// endToEndValues derives the end-to-end metrics of a measured window:
// what the runtime and the program counted over the whole of it.
func endToEndValues(w *window, ctr counters, pool gearregistry.Stats, setup time.Duration) map[string]float64 {
	var alloc, peak uint64
	for _, sl := range w.slices {
		alloc += sl.alloc
		peak = max(peak, sl.peakHeap)
	}
	wire := w.wire + ctr.client.Counter("store.remote.bytes")
	return map[string]float64{
		"alloc_kb_per_op":   float64(alloc) / 1024 / float64(w.ops()),
		"peak_heap_mb":      float64(peak) / (1 << 20),
		"wire_kb_per_op":    float64(wire) / 1024 / float64(w.ops()),
		"pool_stored_ratio": float64(pool.StoredBytes) / float64(pool.LogicalBytes),
		"setup_s":           setup.Seconds(),
	}
}

// counterValues derives the program-counter and boundary-count metrics.
func counterValues(w *window, ctr counters) map[string]float64 {
	n := float64(w.ops())
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c, s := ctr.client, ctr.server
	hits, misses := c.Counter("cache.hits"), c.Counter("cache.misses")
	wire := w.wire + c.Counter("store.remote.bytes")
	return map[string]float64{
		"gearregistry.requests_per_op": per(ctr.boundary.gearRequests),
		"gearregistry.resp_kb_per_op":  per(ctr.boundary.gearRespBytes) / 1024,
		"registry.requests_per_op":     per(ctr.boundary.dockerRequests),
		"wire.conn_reuse_ratio":        ratio(ctr.boundary.reused, ctr.boundary.conns),

		"cache.hit_ratio":                ratio(hits, hits+misses),
		"cache.evictions_per_op":         per(c.Counter("cache.evictions")),
		"store.remote_objects_per_op":    per(c.Counter("store.remote.objects")),
		"store.demand_misses_per_op":     per(c.Counter("store.demand.misses")),
		"store.stall_ms_per_op":          per(c.Counter("store.demand.stall.ns")) / 1e6,
		"store.chunk_demand_per_op":      per(c.Counter("store.chunk.demand")),
		"store.chunk_readahead_per_op":   per(c.Counter("store.chunk.readahead")),
		"store.readahead_hit_ratio":      ratio(c.Counter("store.prefetch.hits"), c.Counter("store.chunk.readahead")),
		"store.window_peak_bytes":        float64(c.Gauge("store.chunk.window.peak")),
		"store.range_reads_per_op":       per(c.Counter("store.range.reads")),
		"store.read_amplification":       ratio(wire, w.payload),
		"gearregistry.download_per_op":   per(s.Counter("gear.download.requests")),
		"gearregistry.range_per_op":      per(s.Counter("gear.range.requests")),
		"gearregistry.upload_per_op":     per(s.Counter("gear.upload.requests")),
		"gearregistry.query_per_op":      per(s.Counter("gear.query.requests")),
		"gearregistry.dedup_hits_per_op": per(s.Counter("gear.dedup.hits")),
		"convert.uploaded_per_op":        per(w.pushUploaded),
		"convert.dedup_skip_ratio":       ratio(w.pushSkipped, w.pushQueried),
	}
}

// slowdown is the median, over the ops both windows ran, of the op's
// latency in w over its latency in base. Both must have begun at the
// same place in the schedule.
func (w *window) slowdown(base *window) float64 {
	var ratios []float64
	for c := range w.byClient {
		for j := 0; j < min(len(w.byClient[c]), len(base.byClient[c])); j++ {
			ratios = append(ratios, float64(w.byClient[c][j])/float64(base.byClient[c][j]))
		}
	}
	return median(ratios)
}
