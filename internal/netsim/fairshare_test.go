package netsim

import (
	"testing"
	"time"
)

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

	solo, _ := fairShare(cfg, []Stream{{Bytes: size}})
	approxEqual(t, solo[0], 500*time.Millisecond, time.Microsecond, "solo stream")

	finish, makespan := fairShare(cfg, []Stream{{Bytes: size}, {Bytes: size}})
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

	finish, makespan := fairShare(cfg, []Stream{{Bytes: s1}, {Bytes: s2}})
	// Short stream: shares until done — 200k at 500k/s = 0.4 s.
	approxEqual(t, finish[0], 400*time.Millisecond, time.Microsecond, "short stream")
	// Long stream: 200k gone by 0.4 s, remaining 600k at full rate = 1.0 s total.
	approxEqual(t, finish[1], time.Second, time.Microsecond, "long stream")
	approxEqual(t, makespan, time.Second, time.Microsecond, "work conservation")
}

// Latency phases overlap across streams; only the wire serializes.
func TestFairShareLatencyOverlap(t *testing.T) {
	lat := 100 * time.Millisecond
	cfg := LinkConfig{BytesPerSecond: 1e6, RTT: lat}
	const size = 500_000

	_, serial := fairShare(cfg, []Stream{{Requests: 1, Bytes: 2 * size}})
	_, parallel := fairShare(cfg, []Stream{
		{Requests: 1, Bytes: size},
		{Requests: 1, Bytes: size},
	})
	// Serial: lat + 1.0 s. Parallel: both latencies overlap, then the wire
	// carries the same volume — lat + 1.0 s too, but if the volume had been
	// split over separately-paid latencies it would be 2·lat + 1.0 s.
	approxEqual(t, serial, lat+time.Second, time.Microsecond, "serial window")
	approxEqual(t, parallel, lat+time.Second, time.Microsecond, "parallel window")
}

// A latency-only stream (zero bytes) finishes when its setup ends.
func TestFairShareLatencyOnlyStream(t *testing.T) {
	cfg := LinkConfig{BytesPerSecond: 1e6, RTT: 50 * time.Millisecond}
	finish, makespan := fairShare(cfg, nil)
	if len(finish) != 0 || makespan != 0 {
		t.Fatalf("empty window: finish=%v makespan=%v", finish, makespan)
	}
	finish, makespan = fairShare(cfg, []Stream{{Requests: 1}})
	approxEqual(t, finish[0], 50*time.Millisecond, time.Microsecond, "latency-only stream")
	approxEqual(t, makespan, 50*time.Millisecond, time.Microsecond, "latency-only makespan")
}

// TransferWindow prices at nominal service — the rule the experiment
// goldens depend on. On a link with a 10x service factor and jitter
// armed, one batched stream costs what Transfer of the same requests and
// bytes costs on a nominal link, records the same traffic, and leaves
// the jitter stream where it was: the next Transfer draws what it draws
// on a twin link that skipped the window.
func TestTransferWindowMatchesTransferBatch(t *testing.T) {
	cfg := DefaultLAN()
	mk := func(factor float64, jitter bool) *Link {
		l, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SetServiceFactor(factor); err != nil {
			t.Fatal(err)
		}
		if jitter {
			if err := l.SetServiceJitter(7, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	nominal, windowed, twin := mk(1, false), mk(10, true), mk(10, true)

	const n, size = 37, int64(1_234_567)
	batchCost := priced(nominal.Transfer(n, size))
	windowCost := priced(windowed.TransferWindow([]Stream{{Requests: n, Bytes: size, Batched: true}}))
	if windowCost != batchCost {
		t.Fatalf("window cost %v, nominal batch cost %v", windowCost, batchCost)
	}
	if as, bs := nominal.Stats(), windowed.Stats(); as != bs {
		t.Fatalf("stats diverge: batch=%+v window=%+v", as, bs)
	}

	for i := 0; i < 4; i++ {
		after, skipped := priced(windowed.Transfer(1, 4096)), priced(twin.Transfer(1, 4096))
		if after != skipped {
			t.Fatalf("transfer %d after the window = %v, %v on a link without it", i, after, skipped)
		}
	}
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
				Requests: n,
				Bytes:    int64(n) * objSize,
				Batched:  true,
			}
		}
		_, makespan := fairShare(cfg, streams)
		if prev >= 0 && makespan > prev {
			t.Fatalf("makespan increased at w=%d: %v > %v", w, makespan, prev)
		}
		prev = makespan
	}
}
