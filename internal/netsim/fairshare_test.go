package netsim

import (
	"testing"
	"time"
)

// mustFairShare is FairShareE on input the test knows to be valid.
func mustFairShare(t *testing.T, cfg LinkConfig, streams []Stream) ([]time.Duration, time.Duration) {
	t.Helper()
	finish, makespan, err := FairShareE(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	return finish, makespan
}

func approxEqual(t *testing.T, got, want time.Duration, tol time.Duration, msg string) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

// Two identical streams must each see half the bandwidth: both finish at
// 2S/bw, twice as late as one stream alone would, and the makespan
// matches the analytic processor-sharing model exactly.
func TestFairShareHalvesBandwidth(t *testing.T) {
	cfg := LinkConfig{BytesPerSecond: 1e6} // 1 MB/s, no latency
	const size = 500_000                   // 0.5 s alone

	solo, _ := mustFairShare(t, cfg, []Stream{{Bytes: size}})
	approxEqual(t, solo[0], 500*time.Millisecond, time.Microsecond, "solo stream")

	finish, makespan := mustFairShare(t, cfg, []Stream{{Bytes: size}, {Bytes: size}})
	want := time.Second // 2·S/bw: each stream at bw/2
	approxEqual(t, finish[0], want, time.Microsecond, "stream 0 at half bandwidth")
	approxEqual(t, finish[1], want, time.Microsecond, "stream 1 at half bandwidth")
	approxEqual(t, makespan, want, time.Microsecond, "makespan")
}

// Unequal streams: the short one finishes first at shared rate, then the
// long one speeds up to full bandwidth. Total wire time is conserved:
// makespan = (S1+S2)/bw when the link never idles.
func TestFairShareWorkConserving(t *testing.T) {
	cfg := LinkConfig{BytesPerSecond: 1e6}
	s1, s2 := int64(200_000), int64(800_000)

	finish, makespan := mustFairShare(t, cfg, []Stream{{Bytes: s1}, {Bytes: s2}})
	// Short stream: shares until done — 200k at 500k/s = 0.4 s.
	approxEqual(t, finish[0], 400*time.Millisecond, time.Microsecond, "short stream")
	// Long stream: 200k gone by 0.4 s, remaining 600k at full rate = 1.0 s total.
	approxEqual(t, finish[1], time.Second, time.Microsecond, "long stream")
	approxEqual(t, makespan, time.Second, time.Microsecond, "work conservation")
}

// Latency phases overlap across streams; only the wire serializes.
func TestFairShareLatencyOverlap(t *testing.T) {
	cfg := LinkConfig{BytesPerSecond: 1e6}
	lat := 100 * time.Millisecond
	const size = 500_000

	_, serial := mustFairShare(t, cfg, []Stream{{Latency: lat, Bytes: 2 * size}})
	_, parallel := mustFairShare(t, cfg, []Stream{
		{Latency: lat, Bytes: size},
		{Latency: lat, Bytes: size},
	})
	// Serial: lat + 1.0 s. Parallel: both latencies overlap, then the wire
	// carries the same volume — lat + 1.0 s too, but if the volume had been
	// split over separately-paid latencies it would be 2·lat + 1.0 s.
	approxEqual(t, serial, lat+time.Second, time.Microsecond, "serial window")
	approxEqual(t, parallel, lat+time.Second, time.Microsecond, "parallel window")
}

// Staggered starts: a stream that becomes ready later leaves the wire
// idle, then transfers at full rate.
func TestFairShareStaggeredStart(t *testing.T) {
	cfg := LinkConfig{BytesPerSecond: 1e6}
	finish, makespan := mustFairShare(t, cfg, []Stream{
		{Start: 300 * time.Millisecond, Bytes: 100_000},
	})
	approxEqual(t, finish[0], 400*time.Millisecond, time.Microsecond, "delayed stream")
	approxEqual(t, makespan, 400*time.Millisecond, time.Microsecond, "makespan includes idle lead-in")
}

// A latency-only stream (zero bytes) finishes at Start+Latency.
func TestFairShareLatencyOnlyStream(t *testing.T) {
	cfg := LinkConfig{BytesPerSecond: 1e6}
	finish, makespan := mustFairShare(t, cfg, nil)
	if len(finish) != 0 || makespan != 0 {
		t.Fatalf("empty window: finish=%v makespan=%v", finish, makespan)
	}
	finish, makespan = mustFairShare(t, cfg, []Stream{{Latency: 50 * time.Millisecond}})
	approxEqual(t, finish[0], 50*time.Millisecond, time.Microsecond, "latency-only stream")
	approxEqual(t, makespan, 50*time.Millisecond, time.Microsecond, "latency-only makespan")
}

// TransferWindow with one batched stream must cost the same as
// TransferBatch for the same requests and bytes, and record identical
// traffic stats.
func TestTransferWindowMatchesTransferBatch(t *testing.T) {
	cfg := DefaultLAN()
	a, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const n, size = 37, int64(1_234_567)
	batchCost := priced(a.TransferBatch(n, size))
	windowCost := priced(b.TransferWindow([]Stream{{
		Latency:  cfg.RTT + time.Duration(n)*cfg.RequestOverhead,
		Requests: n,
		Bytes:    size,
	}}))
	approxEqual(t, windowCost, batchCost, time.Microsecond, "window vs batch cost")

	as, bs := a.Stats(), b.Stats()
	if as.Bytes != bs.Bytes || as.Requests != bs.Requests {
		t.Fatalf("stats diverge: batch=%+v window=%+v", as, bs)
	}
	approxEqual(t, bs.Elapsed, as.Elapsed, time.Microsecond, "elapsed")
}

// Splitting a fixed workload over more streams must never slow the
// window down (monotone non-increasing makespan), because wire work is
// conserved and latency overlaps.
func TestFairShareMonotoneInWorkers(t *testing.T) {
	cfg := DefaultLAN()
	const objects = 64
	const objSize = 128 * 1024

	prev := time.Duration(-1)
	for _, w := range []int{1, 2, 4, 8, 16} {
		streams := make([]Stream, w)
		per := objects / w
		for i := range streams {
			n := per
			if i < objects%w {
				n++
			}
			streams[i] = Stream{
				Latency:  cfg.RTT + time.Duration(n)*cfg.RequestOverhead,
				Requests: n,
				Bytes:    int64(n) * objSize,
			}
		}
		_, makespan := mustFairShare(t, cfg, streams)
		if prev >= 0 && makespan > prev {
			t.Fatalf("makespan increased at w=%d: %v > %v", w, makespan, prev)
		}
		prev = makespan
	}
}
