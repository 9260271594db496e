package netsim

import (
	"fmt"
	"sort"
	"time"
)

// Stream describes one concurrent transfer inside a fetch window: a
// worker that opens its request(s) at Start (relative to the window
// origin), pays Latency of per-request setup (RTT and server overhead,
// during which it occupies no bandwidth), and then moves Bytes over the
// shared wire.
type Stream struct {
	// Start is the stream's offset from the beginning of the window.
	Start time.Duration
	// Latency is the request setup time paid before any byte moves:
	// typically RTT + RequestOverhead×Requests for a batched stream, or
	// (RTT + RequestOverhead)×Requests for per-object requests.
	Latency time.Duration
	// Requests is the number of requests the stream issues (accounting
	// only; the time cost is folded into Latency by the caller).
	Requests int
	// Bytes is the payload volume the stream carries.
	Bytes int64
}

// PerObjectStream returns the Stream for a worker that issues one
// request per object: each object pays its own RTT and server overhead
// before the payload bytes share the wire.
func PerObjectStream(cfg LinkConfig, objects int, bytes int64) Stream {
	return Stream{
		Latency:  (cfg.RTT + cfg.RequestOverhead) * time.Duration(objects),
		Requests: objects,
		Bytes:    bytes,
	}
}

// BatchedStream returns the Stream for a worker that moves objects in
// one batched round trip: a single RTT, with the per-object server
// overhead still paid for every object in the batch.
func BatchedStream(cfg LinkConfig, objects int, bytes int64) Stream {
	return Stream{
		Latency:  cfg.RTT + cfg.RequestOverhead*time.Duration(objects),
		Requests: objects,
		Bytes:    bytes,
	}
}

// ValidateStreams checks that every stream describes a physically
// possible transfer: non-negative start, latency, request count, and
// byte volume.
func ValidateStreams(streams []Stream) error {
	for i, s := range streams {
		if s.Start < 0 || s.Latency < 0 || s.Requests < 0 || s.Bytes < 0 {
			return fmt.Errorf("netsim: stream %d (start %v latency %v requests %d bytes %d): %w",
				i, s.Start, s.Latency, s.Requests, s.Bytes, ErrBadStream)
		}
	}
	return nil
}

// FairShareE runs a deterministic processor-sharing simulation of the
// given streams on a link with cfg's bandwidth: at any instant the
// streams with remaining bytes split BytesPerSecond equally. It returns
// each stream's finish time (relative to the window origin, in input
// order) and the makespan of the whole window.
//
// The model is work-conserving: the total wire time equals the serial
// wire time for the same byte volume whenever the link is never idle, so
// parallelism buys back only the latency phases that overlap — matching
// how concurrent HTTP downloads behave on one bottleneck link.
//
// It reports ErrBadLink for a configuration the simulation cannot price
// (zero or negative bandwidth would make every active stream's share
// zero and the window never drain) and ErrBadStream for impossible
// stream parameters.
func FairShareE(cfg LinkConfig, streams []Stream) (finish []time.Duration, makespan time.Duration, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if err := ValidateStreams(streams); err != nil {
		return nil, 0, err
	}
	finish, makespan = fairShare(cfg, streams)
	return finish, makespan, nil
}

// fairShare runs the processor-sharing simulation on validated input.
func fairShare(cfg LinkConfig, streams []Stream) (finish []time.Duration, makespan time.Duration) {
	n := len(streams)
	finish = make([]time.Duration, n)
	if n == 0 {
		return finish, 0
	}

	type state struct {
		idx       int
		ready     float64 // seconds: Start+Latency, when bytes start moving
		remaining float64 // bytes left to transfer
	}
	states := make([]*state, 0, n)
	for i, s := range streams {
		st := &state{
			idx:       i,
			ready:     (s.Start + s.Latency).Seconds(),
			remaining: float64(s.Bytes),
		}
		if st.remaining <= 0 {
			// Latency-only stream: finishes as soon as its setup ends.
			finish[i] = s.Start + s.Latency
			continue
		}
		states = append(states, st)
	}
	sort.SliceStable(states, func(i, j int) bool { return states[i].ready < states[j].ready })

	bw := cfg.BytesPerSecond
	clock := 0.0
	active := make([]*state, 0, len(states))
	pending := states
	for len(active) > 0 || len(pending) > 0 {
		// Admit streams whose setup has completed.
		for len(pending) > 0 && pending[0].ready <= clock {
			active = append(active, pending[0])
			pending = pending[1:]
		}
		if len(active) == 0 {
			// Wire idle until the next stream becomes ready.
			clock = pending[0].ready
			continue
		}
		// Each active stream gets an equal share of the wire until either
		// the next admission or the earliest completion.
		share := bw / float64(len(active))
		dt := active[0].remaining / share
		for _, st := range active[1:] {
			if d := st.remaining / share; d < dt {
				dt = d
			}
		}
		if len(pending) > 0 {
			if d := pending[0].ready - clock; d < dt {
				dt = d
			}
		}
		clock += dt
		next := active[:0]
		for _, st := range active {
			st.remaining -= dt * share
			if st.remaining <= 1e-9 {
				finish[st.idx] = time.Duration(clock * float64(time.Second))
			} else {
				next = append(next, st)
			}
		}
		active = next
	}

	for _, f := range finish {
		if f > makespan {
			makespan = f
		}
	}
	return finish, makespan
}

// TransferWindow records a window of concurrent streams fair-sharing the
// link and returns the window's makespan, which is what it adds to the
// link's elapsed time. Bytes and request counts accumulate exactly as if
// the streams had run serially — parallelism changes time, not volume.
//
// A single batched stream costs the same as TransferBatch for the same
// requests and bytes.
//
// On a closed link (ErrLinkClosed: a node that detached mid-transfer)
// or for impossible stream parameters (ErrBadStream) it records nothing
// and costs 0.
func (l *Link) TransferWindow(streams []Stream) (time.Duration, error) {
	if err := ValidateStreams(streams); err != nil {
		return 0, err
	}
	var (
		bytes    int64
		requests int64
	)
	for _, s := range streams {
		bytes += s.Bytes
		requests += int64(s.Requests)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("netsim: %w", ErrLinkClosed)
	}
	// cfg was validated at construction (and on every SetConfig), so the
	// share computation cannot divide by zero here.
	_, makespan := fairShare(l.cfg, streams)
	l.bytes += bytes
	l.requests += requests
	l.elapsed += makespan
	return makespan, nil
}
