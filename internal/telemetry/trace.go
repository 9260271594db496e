package telemetry

import (
	"sync"
	"time"
)

// Span classes: what triggered the recorded work.
const (
	// ClassDemand marks work done on the blocking path of a container
	// read (a demand fault).
	ClassDemand = "demand"
	// ClassPrefetch marks work done speculatively by the profile replay.
	ClassPrefetch = "prefetch"
)

// Span sources: where the bytes came from.
const (
	// SourceCache marks a hit in the local L1 object cache.
	SourceCache = "cache"
	// SourcePeer marks objects served by a peer daemon's cache.
	SourcePeer = "peer"
	// SourceRegistry marks objects downloaded from the Gear registry
	// over the WAN.
	SourceRegistry = "registry"
)

// Span is one structured trace event on the fetch path: a deploy phase,
// a fetch window, or a single blocking fault. Deploy-phase spans carry
// virtual-clock durations, which a simulation reproduces exactly. The
// store's "fault" and "rangefault" spans do not: their times are the
// host wall time a reader was blocked (store.Transfer.Wall), so they
// vary run to run until the store takes an injected clock (ROADMAP item
// 4(a)). The store's other spans carry no time.
type Span struct {
	// Seq is the ring-assigned record order (1-based, monotonic).
	Seq int64 `json:"seq"`
	// Op names the operation: "deploy.pull", "deploy.prefetch",
	// "deploy.run", "fetch", "fault".
	Op string `json:"op"`
	// Ref identifies the subject (image ref, fingerprint prefix).
	Ref string `json:"ref,omitempty"`
	// Class is ClassDemand or ClassPrefetch.
	Class string `json:"class,omitempty"`
	// Source is SourceCache, SourcePeer, or SourceRegistry.
	Source string `json:"source,omitempty"`
	// Objects is the number of Gear files the span moved.
	Objects int `json:"objects,omitempty"`
	// Bytes is the wire volume the span accounts for.
	Bytes int64 `json:"bytes,omitempty"`
	// QueueWait is time spent waiting for a scheduler slot or an
	// in-flight duplicate download.
	QueueWait time.Duration `json:"queueWait,omitempty"`
	// Transfer is time on the (virtual) wire.
	Transfer time.Duration `json:"transfer,omitempty"`
}

// DefaultTraceCapacity bounds a TraceRing when the caller does not pick
// a size: enough for every fetch window of a large deploy, small enough
// to forget about.
const DefaultTraceCapacity = 4096

// TraceRing is a bounded in-memory span buffer: recording is O(1), old
// spans are overwritten once the ring wraps, and Snapshot returns the
// retained spans oldest-first. A nil ring discards records, so
// components thread a ring through unconditionally.
type TraceRing struct {
	mu       sync.Mutex
	capacity int
	spans    []Span // grows on Record up to capacity, then wraps
	next     int    // write cursor into spans
	seq      int64  // total spans ever recorded
}

// NewTraceRing returns a ring retaining the last capacity spans
// (DefaultTraceCapacity if capacity <= 0). The capacity is a limit, not
// a reservation: a daemon that records a hundred spans holds a hundred.
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceRing{capacity: capacity}
}

// Record appends one span, assigning its Seq. Nil-safe.
func (t *TraceRing) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	s.Seq = t.seq
	if len(t.spans) < t.capacity {
		t.spans = append(t.spans, s)
		return
	}
	t.spans[t.next] = s
	t.next = (t.next + 1) % len(t.spans)
}

// Snapshot copies the retained spans, oldest first.
func (t *TraceRing) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	out = append(out, t.spans[t.next:]...)
	out = append(out, t.spans[:t.next]...)
	return out
}

// Total returns how many spans were ever recorded (including any the
// ring has since overwritten).
func (t *TraceRing) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Len returns the number of retained spans.
func (t *TraceRing) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
