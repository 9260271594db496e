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

// Span is one structured trace event on the fetch path: a node of a
// deployment's span tree, a fetch window, or a single blocking fault.
// Deployment spans carry virtual-clock durations, which a simulation
// reproduces exactly. The store's "fault" and "rangefault" spans carry
// the read's stall (store.Transfer.Stall): the priced duration when a
// hook prices the store's transfers, as the deployment simulator does,
// otherwise host wall time. The store's other spans carry no time.
type Span struct {
	// Seq is the ring-assigned record order (1-based, monotonic).
	Seq int64 `json:"seq"`
	// ID identifies the span among its recorder's spans (1-based); 0
	// means the recorder does not number its spans, as the store does
	// not.
	ID int64 `json:"id,omitempty"`
	// Parent is the ID of the span this one is part of; 0 for a root.
	// A parent's Dur and Bytes include its children's.
	Parent int64 `json:"parent,omitempty"`
	// Op names the operation. A deployment's tree: "deploy" (the root),
	// "deploy.pull" with "deploy.unpack", "deploy.prefetch", and
	// "deploy.run" with "deploy.fault", "deploy.local" and
	// "deploy.compute". The store: "fault", "rangefault", "readahead"
	// and "fetch". A fleet harness: "fleet.phase".
	Op string `json:"op"`
	// Ref identifies the subject (image ref, accessed path, fingerprint
	// prefix).
	Ref string `json:"ref,omitempty"`
	// Class is ClassDemand or ClassPrefetch.
	Class string `json:"class,omitempty"`
	// Source is SourceCache, SourcePeer, or SourceRegistry.
	Source string `json:"source,omitempty"`
	// Objects is the number of Gear files or requests the span moved
	// (for "deploy.local", the accesses it served).
	Objects int `json:"objects,omitempty"`
	// Bytes is the wire volume the span accounts for.
	Bytes int64 `json:"bytes,omitempty"`
	// QueueWait is time spent waiting for a scheduler slot or an
	// in-flight duplicate download.
	QueueWait time.Duration `json:"queueWait,omitempty"`
	// Dur is the span's duration: time on the (virtual) wire for a
	// transfer, the whole operation for a deployment span.
	Dur time.Duration `json:"dur,omitempty"`
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
	// blocks hold the spans, traceBlock to a block: Record adds a block
	// when the ones there are full, up to capacity, and then wraps. A
	// block stays where it is, so the spans are never copied as they
	// grow.
	blocks [][]Span
	n      int   // spans retained
	next   int   // write cursor, once n is capacity
	seq    int64 // total spans ever recorded
}

// traceBlock is how many spans a block of a ring holds.
const traceBlock = 32

// at is the i'th slot of the ring's storage.
func (t *TraceRing) at(i int) *Span { return &t.blocks[i/traceBlock][i%traceBlock] }

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
	i := t.n
	if t.n < t.capacity {
		if i%traceBlock == 0 {
			t.blocks = append(t.blocks, make([]Span, min(traceBlock, t.capacity-i)))
		}
		t.n++
	} else {
		i, t.next = t.next, (t.next+1)%t.capacity
	}
	*t.at(i) = s
}

// Snapshot copies the retained spans, oldest first.
func (t *TraceRing) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, t.n)
	for k := range out {
		out[k] = *t.at((t.next + k) % t.n)
	}
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
	return t.n
}
