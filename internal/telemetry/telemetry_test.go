package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge value = %d, want 0", got)
	}
	var h *Histogram
	h.Observe(42)
	h.ObserveDuration(time.Second)
	if s := h.snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram count = %d, want 0", s.Count)
	}
}

func TestNilRegistryHandsOutLiveHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(7)
	if got := c.Value(); got != 7 {
		t.Fatalf("live counter from nil registry = %d, want 7", got)
	}
	g := r.Gauge("y")
	g.Set(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("live gauge from nil registry = %d, want 9", got)
	}
	h := r.Histogram("z", DefaultLatencyBounds)
	h.Observe(1)
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("shared"), r.Counter("shared")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Add(2)
	b.Add(3)
	if got := r.Snapshot().Counter("shared"); got != 5 {
		t.Fatalf("shared counter = %d, want 5", got)
	}
	h1 := r.Histogram("lat", []int64{10, 20})
	h2 := r.Histogram("lat", []int64{999}) // later bounds ignored
	if h1 != h2 {
		t.Fatal("same name should return the same histogram")
	}
	if len(h2.bounds) != 2 {
		t.Fatalf("first registration's bounds should win, got %v", h2.bounds)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 100, 5}) // unsorted with dup
	if len(h.bounds) != 3 {
		t.Fatalf("bounds not deduped/sorted: %v", h.bounds)
	}
	h.Observe(5)    // <= 5 -> bucket 0
	h.Observe(6)    // <= 10 -> bucket 1
	h.Observe(100)  // <= 100 -> bucket 2
	h.Observe(1000) // overflow
	s := h.snapshot()
	want := []int64{1, 1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Count != 4 || s.Sum != 5+6+100+1000 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	if err := (Snapshot{Histograms: map[string]HistogramSnapshot{"h": s}}).Validate(); err != nil {
		t.Fatalf("valid histogram failed validation: %v", err)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("objects")
	g := r.Gauge("level")
	h := r.Histogram("lat", []int64{10})
	c.Add(3)
	g.Set(100)
	h.Observe(5)
	before := r.Snapshot()
	c.Add(4)
	g.Set(250)
	h.Observe(50)
	after := r.Snapshot()

	d := after.Diff(before)
	if got := d.Counter("objects"); got != 4 {
		t.Fatalf("diffed counter = %d, want 4", got)
	}
	if got := d.Gauge("level"); got != 250 {
		t.Fatalf("diffed gauge = %d, want current value 250", got)
	}
	dh := d.Histograms["lat"]
	if dh.Count != 1 || dh.Sum != 50 || dh.Counts[0] != 0 || dh.Counts[1] != 1 {
		t.Fatalf("diffed histogram = %+v", dh)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("diffed snapshot invalid: %v", err)
	}
	// A metric absent from prev diffs from zero.
	d2 := after.Diff(Snapshot{})
	if got := d2.Counter("objects"); got != 7 {
		t.Fatalf("diff from empty = %d, want 7", got)
	}
}

func TestValidateRejectsBrokenHistograms(t *testing.T) {
	bad := []Snapshot{
		{Histograms: map[string]HistogramSnapshot{"h": {
			Bounds: []int64{1, 2}, Counts: []int64{0, 0}, // wrong len
		}}},
		{Histograms: map[string]HistogramSnapshot{"h": {
			Bounds: []int64{1, 2}, Counts: []int64{1, 0, 0}, Count: 2, // sum mismatch
		}}},
		{Histograms: map[string]HistogramSnapshot{"h": {
			Bounds: []int64{2, 2}, Counts: []int64{0, 0, 0}, // not strictly increasing
		}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
}

func TestConcurrentPublishAndSnapshot(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("objects")
			g := r.Gauge("level")
			h := r.Histogram("lat", DefaultLatencyBounds)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := r.Snapshot()
			if err := s.Validate(); err != nil {
				t.Errorf("mid-flight snapshot invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := r.Snapshot()
	if got := s.Counter("objects"); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := s.Histograms["lat"].Count; got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}
