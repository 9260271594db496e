// Package netsim models network transfer cost with a deterministic
// virtual clock. The Gear paper's deployment-time results (Fig 9, Fig 10)
// are dominated by how many bytes and how many round trips each image
// format needs at a given link bandwidth; this package computes those
// costs analytically so experiments are exact and repeatable on any
// machine, substituting for the paper's two-server Gigabit testbed.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBadLink reports an invalid link configuration.
var ErrBadLink = errors.New("invalid link configuration")

// ErrLinkClosed reports a transfer attempted on a closed link — a node
// that detached from its topology mid-scenario. Closed links carry no
// further traffic; their accumulated stats remain readable.
var ErrLinkClosed = errors.New("link closed")

// ErrBadStream reports a transfer described with impossible parameters
// (negative sizes or offsets).
var ErrBadStream = errors.New("invalid stream")

// Mbps converts megabits-per-second into bytes-per-second.
func Mbps(mbps float64) float64 { return mbps * 1e6 / 8 }

// LinkConfig describes a point-to-point link between a client and a
// registry.
type LinkConfig struct {
	// BytesPerSecond is the sustained throughput of the link.
	BytesPerSecond float64
	// RTT is the round-trip latency paid once per request.
	RTT time.Duration
	// RequestOverhead is the fixed server-side cost per request (HTTP
	// handling, object lookup). It is what makes many small requests —
	// Slacker's block fetches — slower than few large ones at the same
	// byte volume.
	RequestOverhead time.Duration
	// RangeOverhead is the extra server-side cost a byte-range request
	// pays on top of RequestOverhead — seeking into the stored object
	// and framing the Content-Range slice. Zero (the default) prices a
	// range request exactly like a whole-object request of the same
	// size, so chunked transfers degenerate to today's arithmetic.
	RangeOverhead time.Duration
}

// Validate checks the configuration.
func (c LinkConfig) Validate() error {
	if c.BytesPerSecond <= 0 {
		return fmt.Errorf("netsim: bytes per second %f: %w", c.BytesPerSecond, ErrBadLink)
	}
	if c.RTT < 0 || c.RequestOverhead < 0 || c.RangeOverhead < 0 {
		return fmt.Errorf("netsim: negative latency: %w", ErrBadLink)
	}
	return nil
}

// DefaultLAN approximates the paper's measured 904 Mbps server pair.
func DefaultLAN() LinkConfig {
	return LinkConfig{
		BytesPerSecond:  Mbps(904),
		RTT:             200 * time.Microsecond,
		RequestOverhead: 300 * time.Microsecond,
	}
}

// WithBandwidth returns a copy of c limited to the given Mbps, as the
// paper does with 1000/100/20/5 Mbps runs.
func (c LinkConfig) WithBandwidth(mbps float64) LinkConfig {
	c.BytesPerSecond = Mbps(mbps)
	return c
}

// Link accumulates traffic over a configured link and converts it to
// virtual time. Link is safe for concurrent use.
type Link struct {
	mu       sync.Mutex
	cfg      LinkConfig
	closed   bool
	bytes    int64
	requests int64
	elapsed  time.Duration
	// factor scales the server-side cost (request overhead + wire time)
	// of every future transfer: 0 or 1 is nominal, 10 a straggler
	// serving at a tenth of its rated speed. The RTT is network
	// propagation and stays unscaled.
	factor float64
	// jitterAmp > 0 adds deterministic per-request service jitter: each
	// transfer draws u in [0,1) from the seeded xorshift stream and
	// scales its server-side cost by 1+jitterAmp*u.
	jitterAmp   float64
	jitterState uint64
}

// NewLink returns a Link for cfg.
func NewLink(cfg LinkConfig) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Link{cfg: cfg}, nil
}

// Config returns the link configuration.
func (l *Link) Config() LinkConfig {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cfg
}

// SetConfig replaces the link configuration — a WAN degrading when the
// registry fails over to a distant mirror, then recovering. Traffic
// already recorded keeps its original pricing; only future transfers pay
// the new rates.
func (l *Link) SetConfig(cfg LinkConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("netsim: %w", ErrLinkClosed)
	}
	l.cfg = cfg
	return nil
}

// Close marks the link down — the node behind it detached. Further
// transfers record nothing; the error-returning variants report
// ErrLinkClosed. Closing twice is a no-op.
func (l *Link) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
}

// Closed reports whether the link has been closed.
func (l *Link) Closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// SetServiceFactor scales the server-side cost of every future
// transfer on this link — the straggler knob: a factor of 10 models a
// node serving at a tenth of its rated speed (overloaded disk, GC
// storms, a failing NIC). Factor must be positive; 1 restores nominal
// service. Traffic already recorded keeps its original pricing.
func (l *Link) SetServiceFactor(f float64) error {
	if f <= 0 {
		return fmt.Errorf("netsim: service factor %f: %w", f, ErrBadLink)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.factor = f
	return nil
}

// ServiceFactor returns the current server-side cost multiplier.
func (l *Link) ServiceFactor() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.factor <= 0 {
		return 1
	}
	return l.factor
}

// SetServiceJitter enables deterministic per-request service jitter:
// each future transfer scales its server-side cost by 1+amp*u, with u
// drawn in [0,1) from an xorshift stream seeded here. The same seed
// replays the same jitter sequence, so slow requests are reproducible.
// amp 0 disables jitter; negative amp is rejected.
func (l *Link) SetServiceJitter(seed uint64, amp float64) error {
	if amp < 0 {
		return fmt.Errorf("netsim: jitter amplitude %f: %w", amp, ErrBadLink)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jitterAmp = amp
	if seed == 0 {
		// xorshift is stuck at zero; displace with the splitmix constant.
		seed = 0x9e3779b97f4a7c15
	}
	l.jitterState = seed
	return nil
}

// jitterDrawLocked advances the jitter stream and returns u in [0,1).
func (l *Link) jitterDrawLocked() float64 {
	x := l.jitterState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.jitterState = x
	return float64(x>>11) / float64(1<<53)
}

// costLocked prices n requests totalling size bytes: RTT once, request
// overhead per request (plus RangeOverhead for range requests), wire
// time on the volume — with the server-side parts scaled by the service
// factor and one jitter draw per call. With factor 1 and jitter off the
// arithmetic is bit-identical to the pre-knob pricing.
func (l *Link) costLocked(n int, size int64, ranged bool) time.Duration {
	perReq := l.cfg.RequestOverhead
	if ranged {
		perReq += l.cfg.RangeOverhead
	}
	wire := time.Duration(float64(size) / l.cfg.BytesPerSecond * float64(time.Second))
	serve := perReq*time.Duration(n) + wire
	f := 1.0
	if l.factor > 0 {
		f = l.factor
	}
	if l.jitterAmp > 0 {
		f *= 1 + l.jitterAmp*l.jitterDrawLocked()
	}
	if f != 1 {
		serve = time.Duration(float64(serve) * f)
	}
	return l.cfg.RTT + serve
}

// transfer is the one priced path behind every Transfer* and *Quote
// verb: n requests (ranged or not) totalling size bytes are validated,
// priced with one jitter draw, and — when record is set — added to the
// link's traffic. No requests is no transfer; what names the verb in the
// ErrBadStream message.
func (l *Link) transfer(what string, n int, size int64, ranged, record bool) (time.Duration, error) {
	if n <= 0 {
		return 0, nil
	}
	if size < 0 {
		return 0, fmt.Errorf("netsim: %s of %d bytes: %w", what, size, ErrBadStream)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("netsim: %w", ErrLinkClosed)
	}
	cost := l.costLocked(n, size, ranged)
	if record {
		l.bytes += size
		l.requests += int64(n)
		l.elapsed += cost
	}
	return cost, nil
}

// TransferCost returns the virtual time to move size bytes in a single
// request, without recording it. The service factor applies; the jitter
// stream is left untouched (a cost estimate must not perturb the
// deterministic per-request sequence) — use TransferQuote to draw a
// jittered cost.
func (l *Link) TransferCost(size int64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	wire := time.Duration(float64(size) / l.cfg.BytesPerSecond * float64(time.Second))
	serve := l.cfg.RequestOverhead + wire
	if l.factor > 0 && l.factor != 1 {
		serve = time.Duration(float64(serve) * l.factor)
	}
	return l.cfg.RTT + serve
}

// Transfer records one request of size bytes and returns its cost. On a
// closed link (ErrLinkClosed) or for a negative size (ErrBadStream) it
// records nothing and costs 0.
func (l *Link) Transfer(size int64) (time.Duration, error) {
	return l.transfer("transfer", 1, size, false, true)
}

// TransferQuote draws the (service-scaled, jittered) cost of n requests
// totalling size bytes without recording any traffic. The jitter stream
// advances exactly as a recorded transfer would, so a quote followed by
// RecordTransfer prices identically to Transfer/TransferBatch. Hedged
// readers quote both replicas, pick the winner, and record the loser's
// partial outcome.
func (l *Link) TransferQuote(n int, size int64) (time.Duration, error) {
	return l.transfer("quote", n, size, false, false)
}

// RecordTransfer commits a previously quoted transfer outcome: n
// requests, size bytes moved, cost of link busy time. A cancelled
// (hedge-losing) transfer records the bytes and busy time it actually
// spent before cancellation.
func (l *Link) RecordTransfer(n int, size int64, cost time.Duration) error {
	if n <= 0 {
		return nil
	}
	if size < 0 || cost < 0 {
		return fmt.Errorf("netsim: record of %d bytes in %v: %w", size, cost, ErrBadStream)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("netsim: %w", ErrLinkClosed)
	}
	l.bytes += size
	l.requests += int64(n)
	l.elapsed += cost
	return nil
}

// PrefixBytes reports how many of size bytes a transfer of n requests
// priced at cost has delivered when cancelled busy into its service:
// nothing until the RTT and the (service-scaled) request overhead
// elapse, then linear across the wire phase. The overhead/wire split is
// taken from the current configuration; the service scaling cancels out
// of the split, so the same call prices jittered and straggling
// transfers correctly. Hedged readers use this to discount the bytes a
// cancelled loser actually moved.
func (l *Link) PrefixBytes(n int, size int64, busy, cost time.Duration) int64 {
	if n < 1 || size <= 0 || busy <= 0 {
		return 0
	}
	if busy >= cost {
		return size
	}
	l.mu.Lock()
	ovh := float64(l.cfg.RequestOverhead) * float64(n)
	wire := float64(size) / l.cfg.BytesPerSecond * float64(time.Second)
	rtt := float64(l.cfg.RTT)
	l.mu.Unlock()
	serve := float64(cost) - rtt
	if serve <= 0 || ovh+wire <= 0 {
		return 0
	}
	dataStart := rtt + serve*ovh/(ovh+wire)
	span := float64(cost) - dataStart
	if span <= 0 || float64(busy) <= dataStart {
		return 0
	}
	got := int64(float64(size) * (float64(busy) - dataStart) / span)
	if got > size {
		got = size
	}
	return got
}

// TransferBatch records n requests totalling size bytes, as when a client
// pipelines many object fetches: the wire time is paid on the full volume
// but the RTT is amortized over a pipeline window. On a closed link
// (ErrLinkClosed) or for a negative size (ErrBadStream) it records
// nothing and costs 0.
func (l *Link) TransferBatch(n int, size int64) (time.Duration, error) {
	return l.transfer("batch", n, size, false, true)
}

// TransferRangeQuote draws the cost of n range requests — chunks
// fetched out of larger stored objects — totalling size bytes without
// recording traffic, advancing the jitter stream exactly as a recorded
// transfer would. It is the range analogue of TransferQuote and, with
// RecordTransfer, the one way a range is priced. Range requests pay
// RangeOverhead on top of the per-request overhead; with RangeOverhead
// zero the cost is bit-identical to a whole-object request's.
func (l *Link) TransferRangeQuote(n int, size int64) (time.Duration, error) {
	return l.transfer("range quote", n, size, true, false)
}

// Stats is a snapshot of traffic carried by a link.
type Stats struct {
	Bytes    int64         `json:"bytes"`
	Requests int64         `json:"requests"`
	Elapsed  time.Duration `json:"elapsed"`
}

// Stats returns the traffic carried so far.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Bytes: l.bytes, Requests: l.requests, Elapsed: l.elapsed}
}

// Reset zeroes the accumulated traffic.
func (l *Link) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bytes, l.requests, l.elapsed = 0, 0, 0
}
