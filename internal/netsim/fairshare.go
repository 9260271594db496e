package netsim

import (
	"fmt"
	"sort"
	"time"
)

// Stream describes one concurrent transfer inside a fetch window: a
// worker that issues Requests requests, pays their setup latency (RTT
// and server overhead, during which it occupies no bandwidth), and then
// moves Bytes over the shared wire. The latency comes from the link's
// configuration: one RTT plus the per-request overhead of every request
// for a Batched stream, a full RTT and overhead per request otherwise.
type Stream struct {
	Requests int
	Bytes    int64
	// Batched streams move all their objects in one round trip.
	Batched bool
}

// latency is the stream's request setup time on a link configured cfg.
func (s Stream) latency(cfg LinkConfig) time.Duration {
	if s.Batched {
		return cfg.RTT + cfg.RequestOverhead*time.Duration(s.Requests)
	}
	return (cfg.RTT + cfg.RequestOverhead) * time.Duration(s.Requests)
}

// fairShare runs a deterministic processor-sharing simulation of the
// given (validated) streams on a link configured cfg: at any instant the
// streams with remaining bytes split BytesPerSecond equally. It returns
// each stream's finish time (relative to the window origin, in input
// order) and the makespan of the whole window.
//
// The model is work-conserving: the total wire time equals the serial
// wire time for the same byte volume whenever the link is never idle, so
// parallelism buys back only the latency phases that overlap — matching
// how concurrent HTTP downloads behave on one bottleneck link.
func fairShare(cfg LinkConfig, streams []Stream) (finish []time.Duration, makespan time.Duration) {
	n := len(streams)
	finish = make([]time.Duration, n)
	if n == 0 {
		return finish, 0
	}

	type state struct {
		idx       int
		ready     float64 // seconds: when the setup ends and bytes start moving
		remaining float64 // bytes left to transfer
	}
	states := make([]*state, 0, n)
	for i, s := range streams {
		lat := s.latency(cfg)
		st := &state{
			idx:       i,
			ready:     lat.Seconds(),
			remaining: float64(s.Bytes),
		}
		if st.remaining <= 0 {
			// Latency-only stream: finishes as soon as its setup ends.
			finish[i] = lat
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
// Each stream's setup is priced from the link's current configuration.
//
// A window is priced at nominal service: the service factor does not
// scale it and it draws no jitter, so a single batched stream costs
// what Transfer of the same requests and bytes costs on a nominal link,
// and the jitter stream is where it was before the window.
//
// On a closed link (ErrLinkClosed: a node that detached mid-transfer)
// or for a stream with negative requests or bytes (ErrBadStream) it
// records nothing and costs 0.
func (l *Link) TransferWindow(streams []Stream) (time.Duration, error) {
	var bytes, requests int64
	for i, s := range streams {
		if s.Requests < 0 || s.Bytes < 0 {
			return 0, fmt.Errorf("netsim: stream %d (requests %d bytes %d): %w",
				i, s.Requests, s.Bytes, ErrBadStream)
		}
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
