// Package telemetry is the reproduction's observability spine: a
// dependency-free metrics registry (typed counters, gauges, and
// fixed-bucket latency histograms with atomic hot paths) plus a bounded
// structured trace ring for per-fetch events (trace.go) and a JSON
// exposition surface (http.go).
//
// The paper evaluates Gear almost entirely through measurement — pull
// size, deployment latency, per-phase traffic — so every subsystem of
// this codebase (store fetch/scheduler, cache admit/evict, both
// registries, peer exchange, prefetch replay, deploy phases) publishes
// into a Registry, and the per-package Stats structs are thin views
// derived from it. One snapshot shape, one naming scheme
// (Objects/Bytes/Hits/Misses), one wire format.
//
// Handles are resolved once at construction time and are safe to use
// from any goroutine: a Counter.Add is a single atomic op. Every method
// is nil-receiver safe, and a nil *Registry hands out live,
// unregistered handles — components never need to guard the hot path on
// "is telemetry configured?".
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing (well-behaved callers only add
// non-negative deltas; Drop-style corrections may subtract) int64
// metric. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns an unregistered counter.
func NewCounter() *Counter { return new(Counter) }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 level: cache occupancy, index count,
// link totals. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return new(Gauge) }

// Set replaces the level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the level by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBounds are the fixed histogram bucket upper bounds used
// for latency metrics, in nanoseconds: 100µs, 1ms, 10ms, 100ms, 1s, 10s
// (plus the implicit overflow bucket). Deployment-phase durations under
// the virtual clock span exactly this range.
var DefaultLatencyBounds = []int64{
	int64(100 * time.Microsecond),
	int64(time.Millisecond),
	int64(10 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(time.Second),
	int64(10 * time.Second),
}

// Histogram is a fixed-bucket int64 histogram. Observe is lock-free:
// one atomic add into the bucket plus one for the sum. Bounds are upper
// bucket edges (v <= bounds[i] lands in bucket i); values above the
// last bound land in the overflow bucket, so len(counts) ==
// len(bounds)+1. The buckets are the only record of how many values
// were observed: a count kept beside them could not be read in the same
// instant, and a snapshot taken mid-Observe would disagree with itself.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64
	sum    atomic.Int64
}

// NewHistogram returns an unregistered histogram with the given bucket
// bounds. Bounds must be strictly increasing; out-of-order or duplicate
// bounds are sorted and deduplicated defensively. Empty bounds yield a
// single (overflow-only) bucket.
func NewHistogram(bounds []int64) *Histogram {
	bs := append([]int64(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	dedup := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			dedup = append(dedup, b)
		}
	}
	bs = dedup
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Buckets are few (a handful of latency decades); linear scan beats
	// binary search at this size and stays branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records one duration (stored as nanoseconds).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// snapshot copies the histogram's current state. Count is the sum of
// the bucket values this call read, so the pair always passes Validate
// however many Observes are in flight; Sum may run one observation
// ahead of or behind them.
func (h *Histogram) snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Registry is a named collection of metrics. Metric handles are
// get-or-create: two components asking for the same name share the one
// metric. Safe for concurrent use; resolve handles once at construction
// and publish through them on hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if
// absent. A nil registry returns a live, unregistered counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return NewCounter()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
// A nil registry returns a live, unregistered gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return NewGauge()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds if absent (later callers' bounds are ignored —
// the first registration wins). A nil registry returns a live,
// unregistered histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state at snapshot time.
// Counts[i] holds observations <= Bounds[i]; the final element is the
// overflow bucket, so len(Counts) == len(Bounds)+1.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot is a point-in-time copy of a registry: the unified stats
// shape every component exposes (gear.StatsSnapshot). It marshals to
// deterministic JSON (encoding/json sorts map keys), which is what the
// /metrics exposition handler serves and gearctl stats decodes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every registered metric. Values are read atomically
// per metric; the snapshot as a whole is not a global atomic cut, which
// is fine for monotonic counters (each value is some true intermediate
// state). A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// DiffStripped returns Snapshot().Diff(prev).Strip(drop...) computed in
// one pass over the registry: the current values are read, subtracted,
// and filtered directly into the result maps, with no intermediate
// snapshot or second/third map pass. Per-phase accounting loops (fleet
// scenarios take two snapshots per phase) use it so bookkeeping cost
// stays flat as fleets scale. A nil registry yields an empty snapshot.
func (r *Registry) DiffStripped(prev Snapshot, drop ...string) Snapshot {
	var d Snapshot
	if r == nil {
		return d
	}
	dropped := func(name string) bool {
		// drop lists are tiny (a couple of wall-clock metrics); a linear
		// scan beats building a set per call.
		for _, n := range drop {
			if n == name {
				return true
			}
		}
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		d.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			if !dropped(name) {
				d.Counters[name] = c.Value() - prev.Counters[name]
			}
		}
	}
	if len(r.gauges) > 0 {
		d.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			if !dropped(name) {
				d.Gauges[name] = g.Value()
			}
		}
	}
	if len(r.hists) > 0 {
		d.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			if !dropped(name) {
				d.Histograms[name] = h.snapshot().diff(prev.Histograms[name])
			}
		}
	}
	return d
}

// Counter returns the snapshot's value for a counter (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the snapshot's value for a gauge (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Diff returns the change from prev to s: counters and histogram
// buckets subtract (metrics absent from prev count from zero); gauges
// keep s's current level — a gauge is an instantaneous reading, not an
// accumulation. Histograms whose bounds changed between snapshots are
// reported at their current state.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	var d Snapshot
	if len(s.Counters) > 0 {
		d.Counters = make(map[string]int64, len(s.Counters))
		for name, v := range s.Counters {
			d.Counters[name] = v - prev.Counters[name]
		}
	}
	if len(s.Gauges) > 0 {
		d.Gauges = make(map[string]int64, len(s.Gauges))
		for name, v := range s.Gauges {
			d.Gauges[name] = v
		}
	}
	if len(s.Histograms) > 0 {
		d.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for name, h := range s.Histograms {
			d.Histograms[name] = h.diff(prev.Histograms[name])
		}
	}
	return d
}

// diff subtracts prev bucket-wise when the bounds match, and returns h
// unchanged otherwise.
func (h HistogramSnapshot) diff(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Bounds) != len(h.Bounds) || len(prev.Counts) != len(h.Counts) {
		return h
	}
	for i, b := range h.Bounds {
		if prev.Bounds[i] != b {
			return h
		}
	}
	out := HistogramSnapshot{
		Bounds: append([]int64(nil), h.Bounds...),
		Counts: make([]int64, len(h.Counts)),
		Sum:    h.Sum - prev.Sum,
		Count:  h.Count - prev.Count,
	}
	for i := range h.Counts {
		out.Counts[i] = h.Counts[i] - prev.Counts[i]
	}
	return out
}

// Strip returns a copy of s without the named metrics (matched against
// counters, gauges, and histograms alike). Deterministic replays use it
// to drop the few wall-clock-derived metrics (demand-stall timings are
// measured in real time, not virtual time) before comparing snapshots
// bit-for-bit.
func (s Snapshot) Strip(names ...string) Snapshot {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	var out Snapshot
	if len(s.Counters) > 0 {
		out.Counters = make(map[string]int64, len(s.Counters))
		for name, v := range s.Counters {
			if !drop[name] {
				out.Counters[name] = v
			}
		}
	}
	if len(s.Gauges) > 0 {
		out.Gauges = make(map[string]int64, len(s.Gauges))
		for name, v := range s.Gauges {
			if !drop[name] {
				out.Gauges[name] = v
			}
		}
	}
	if len(s.Histograms) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for name, h := range s.Histograms {
			if !drop[name] {
				out.Histograms[name] = h
			}
		}
	}
	return out
}

// Validate checks the structural invariants the decoder relies on:
// histogram bounds strictly increasing, len(Counts) == len(Bounds)+1,
// and Count equal to the bucket sum. Counter/gauge values are
// unconstrained (diffs may legitimately be negative).
func (s Snapshot) Validate() error {
	for name, h := range s.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("telemetry: histogram %q: %d counts for %d bounds",
				name, len(h.Counts), len(h.Bounds))
		}
		var total int64
		for _, c := range h.Counts {
			total += c
		}
		if total != h.Count {
			return fmt.Errorf("telemetry: histogram %q: buckets sum to %d, count says %d",
				name, total, h.Count)
		}
		for i := 1; i < len(h.Bounds); i++ {
			if h.Bounds[i] <= h.Bounds[i-1] {
				return fmt.Errorf("telemetry: histogram %q: bounds not strictly increasing at %d",
					name, i)
			}
		}
	}
	return nil
}
