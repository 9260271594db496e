package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Layer names of the spans the harness records. A layer is a module of
// the program seen from outside: the span covers one call into it.
const (
	layerDeploy     = "dockersim.deploy"
	layerViewer     = "viewer.read"
	layerConvert    = "convert.convert"
	layerPush       = "convert.push"
	layerDockerCli  = "registry.client"
	layerDockerSrv  = "registry.handler"
	layerGearCli    = "gearregistry.client"
	layerGearSrv    = "gearregistry.handler"
	layerWire       = "wire.roundtrip"
	layerOp         = "op" // the root span of one operation
	traceHeaderSpan = "X-Loadbench-Span"
	traceHeaderOp   = "X-Loadbench-Op"
)

// span is one record of the trace file.
type span struct {
	Op     uint64 `json:"op_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent_id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes"`
	Err    string `json:"err,omitempty"`
}

// tracer keeps spans in memory until the run ends. Spans land in one of
// a few buffers by id, so clients and handlers recording at once rarely
// wait for each other.
type tracer struct {
	nextID atomic.Uint64
	shards [8]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newTracer() *tracer {
	t := &tracer{}
	for i := range t.shards {
		t.shards[i].spans = make([]span, 0, 1<<15)
	}
	return t
}

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	sh := &t.shards[s.ID%uint64(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// reset drops what was recorded so far (the warm-up).
func (t *tracer) reset() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.spans = sh.spans[:0]
		sh.mu.Unlock()
	}
}

// snapshot returns the spans recorded so far, in start order.
func (t *tracer) snapshot() []span {
	var all []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		all = append(all, sh.spans...)
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// opCtx is one operation in flight on one client. The scenario brackets
// its calls into the program with begin/end; the client decorators find
// the opCtx through a stack's resolver and parent their spans on cur.
type opCtx struct {
	tr     *tracer
	client int
	verify bool   // hold this op's outcome against the oracle
	id     uint64 // op id, also the root span's id
	cur    atomic.Uint64

	// What the op is after, for resolvers of a store two clients share:
	// a chunk index range of the big file, or one whole object.
	chunkLo, chunkHi int
	object           string
}

// activeSpan is a span begun by the scenario on the op's own goroutine.
type activeSpan struct {
	x      *opCtx
	s      span
	parent uint64
}

// begin opens a span for a call the scenario is about to make.
func (x *opCtx) begin(layer, name string) activeSpan {
	if x.tr == nil {
		return activeSpan{}
	}
	a := activeSpan{x: x, parent: x.cur.Load()}
	a.s = span{Op: x.id, ID: x.tr.id(), Parent: a.parent, Layer: layer, Name: name, Start: nanotime()}
	x.cur.Store(a.s.ID)
	return a
}

// end closes the span; err is recorded, not handled.
func (a activeSpan) end(err error) {
	if a.x == nil {
		return
	}
	a.s.End = nanotime()
	if err != nil {
		a.s.Err = err.Error()
	}
	a.x.cur.Store(a.parent)
	a.x.tr.record(a.s)
}

// layerTimes is the outcome of the trace analysis over a set of ops.
type layerTimes struct {
	ops          int
	opNanos      int64            // summed op time
	byLayer      map[string]int64 // wall time attributed to each layer
	unattributed int64            // op time no layer span covers
	// gapShares holds, per op, the share of its time no layer span
	// covers. A span missing from the harness shows in every op; a pause
	// of the runtime that lands between two spans shows in one.
	gapShares []float64
}

// analyze attributes every instant of every op to the layers active at
// that instant. Within one op the innermost active span of each branch
// owns the instant (a client call owns it until its round trip starts,
// the round trip until the handler runs); when an op has several
// branches in flight at once — parallel chunk fetches — the instant is
// split equally among them, so the layer times of an op always add up
// to its wall time. Spans with op id 0 (readahead outliving its op) are
// in the trace file but in no op's account.
func analyze(spans []span) layerTimes {
	byOp := make(map[uint64][]span)
	for _, s := range spans {
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	out := layerTimes{byLayer: make(map[string]int64)}
	for id, group := range byOp {
		var root *span
		for i := range group {
			if group[i].ID == id && group[i].Layer == layerOp {
				root = &group[i]
			}
		}
		if root == nil {
			continue
		}
		out.ops++
		opNanos, gap := out.opNanos, out.unattributed
		sweepOp(*root, group, &out)
		if d := out.opNanos - opNanos; d > 0 {
			out.gapShares = append(out.gapShares, float64(out.unattributed-gap)/float64(d))
		}
	}
	return out
}

type edge struct {
	at    int64
	start bool
	idx   int
}

func sweepOp(root span, group []span, out *layerTimes) {
	edges := make([]edge, 0, 2*len(group))
	for i, s := range group {
		if s.ID == root.ID {
			continue
		}
		// Clip to the op: a readahead may outlive the read that began it.
		a, b := max(s.Start, root.Start), min(s.End, root.End)
		if b <= a {
			continue
		}
		edges = append(edges, edge{a, true, i}, edge{b, false, i})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].start && edges[j].start // ends before starts
	})
	active := make(map[int]bool)
	children := make(map[uint64]int) // span id -> active child count
	prev := root.Start
	account := func(until int64) {
		dt := until - prev
		prev = until
		if dt <= 0 {
			return
		}
		out.opNanos += dt
		leaves := 0
		for i := range active {
			if children[group[i].ID] == 0 {
				leaves++
			}
		}
		if leaves == 0 {
			out.unattributed += dt
			return
		}
		for i := range active {
			if children[group[i].ID] == 0 {
				out.byLayer[group[i].Layer] += dt / int64(leaves)
			}
		}
	}
	for _, e := range edges {
		account(e.at)
		s := group[e.idx]
		delta := 1
		if !e.start {
			delta = -1
		}
		if e.start {
			active[e.idx] = true
		} else {
			delete(active, e.idx)
		}
		children[s.Parent] += delta
	}
	account(root.End)
}

// writeTrace writes one JSON span per line.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return "", fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
