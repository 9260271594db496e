package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// flight is one in-progress download. Concurrent requests for the same
// fingerprint join the first caller's flight instead of issuing
// duplicate downloads (singleflight).
type flight struct {
	fp      hashing.Fingerprint
	done    chan struct{}
	content *vfs.Content
	err     error
}

// claim registers a flight for fp, or joins the one in progress. A
// caller told to lead hands f to lead, which completes it; any other
// caller waits on f.done.
func (s *Store) claim(fp hashing.Fingerprint) (f *flight, lead bool) {
	s.flightMu.Lock()
	if f, ok := s.flights[fp]; ok {
		s.flightMu.Unlock()
		return f, false
	}
	f = &flight{fp: fp, done: make(chan struct{})}
	s.flights[fp] = f
	s.flightMu.Unlock()
	// Re-check after claiming: the leader of fp's previous flight may have
	// finished between the caller's cache miss and this claim, and leading
	// a second download would fetch the file twice. The caller has counted
	// its access already, so Peek leaves hit/miss stats untouched.
	if c, ok := s.cache.Peek(fp); ok {
		f.content = c
		s.finish(f)
		return f, false
	}
	return f, true
}

// finish publishes the flight's result and releases waiters.
func (s *Store) finish(f *flight) {
	s.flightMu.Lock()
	delete(s.flights, f.fp)
	s.flightMu.Unlock()
	close(f.done)
}

// ErrCorruptDownload reports a fetched Gear file whose content does not
// hash to its fingerprint — a corrupt or malicious registry response.
var ErrCorruptDownload = errors.New("downloaded gear file fails fingerprint verification")

// lead downloads the object of every claimed flight and completes each
// flight exactly once, whether it succeeds or fails. It is the store's
// only way from the network into level 1: every object is tried on the
// peers first, and what remains goes to the registry — in one
// DownloadBatch round trip when batch is set; a caller that does not
// batch claims exactly one flight, and its object is one Download (the
// two are priced differently downstream, by StreamStat.Batched).
// Content addressing makes end-to-end integrity free, so every payload,
// from a peer or the registry, is verified against its fingerprint
// before anything enters the cache or an index tree. A batch is
// all-or-nothing: one missing or corrupt object fails every flight in
// it. The speculative classes tag what they admit, so a later demand
// read scores as a prefetch hit.
//
// The returned record says what this call moved over the WAN and the
// LAN; the caller completes and accounts it, since only it knows which
// transfers share a round trip.
func (s *Store) lead(claimed []*flight, class fetchClass, batch bool) (t Transfer, err error) {
	t.Class = class.label()
	var errs []error
	fail := func(err error, fs ...*flight) {
		for _, f := range fs {
			f.err = err
			s.finish(f)
		}
		errs = append(errs, err)
	}
	admit := func(f *flight, data []byte) {
		c, err := s.cache.Put(f.fp, data)
		if err != nil {
			fail(fmt.Errorf("store: cache %s: %w", f.fp, err), f)
			return
		}
		f.content = c
		if class != classDemand {
			s.markPrefetched(f.fp)
		}
		s.finish(f)
	}

	rest := claimed
	if s.opts.Peers != nil {
		rest = make([]*flight, 0, len(claimed))
		for _, f := range claimed {
			data, wire, ok := s.fetchFromPeer(f.fp)
			if !ok {
				rest = append(rest, f)
				continue
			}
			t.Peer.add(1, wire)
			admit(f, data)
		}
	}
	switch {
	case len(rest) == 0:
	case s.opts.Remote == nil:
		fail(fmt.Errorf("store: no remote registry: %w", gearregistry.ErrNotFound), rest...)
	case batch:
		fps := make([]hashing.Fingerprint, len(rest))
		for i, f := range rest {
			fps[i] = f.fp
		}
		payloads, wire, err := s.opts.Remote.DownloadBatch(fps)
		for i := 0; err == nil && i < len(rest); i++ {
			err = verify(fps[i], payloads[i])
		}
		if err != nil {
			fail(fmt.Errorf("store: batch download: %w", err), rest...)
			break
		}
		t.Registry = StreamStat{Objects: len(rest), Bytes: wire, Batched: true}
		for i, f := range rest {
			admit(f, payloads[i])
		}
	default:
		f := rest[0]
		data, wire, err := s.opts.Remote.Download(f.fp)
		if err != nil {
			err = fmt.Errorf("store: download: %w", err)
		} else {
			err = verify(f.fp, data)
		}
		if err != nil {
			fail(err, f)
			break
		}
		t.Registry.add(1, wire)
		admit(f, data)
	}
	return t, errors.Join(errs...)
}

// fetchFromPeer asks the peer source for fp and verifies the answer.
// Corrupt peer payloads are treated as a miss: the registry fallback is
// always correct, just more expensive.
func (s *Store) fetchFromPeer(fp hashing.Fingerprint) ([]byte, int64, bool) {
	data, wire, ok := s.opts.Peers.FetchPeer(fp)
	if !ok || verify(fp, data) != nil {
		return nil, 0, false
	}
	return data, wire, true
}

// enterDemand admits one blocking demand transfer of size bytes and
// starts its stall clock; leaveDemand retires it and charges the time
// since to the demand stall — every caller is a foreground read, so that
// time is a container blocked on the network.
func (s *Store) enterDemand(size int64) time.Time {
	s.gate.enter(classDemand, size)
	return time.Now()
}

func (s *Store) leaveDemand(size int64, start time.Time) {
	stall := time.Since(start)
	s.m.stallNanos.Add(stall.Nanoseconds())
	s.m.stall.ObserveDuration(stall)
	s.gate.leave(classDemand, size)
}

// fetchOne faults in the Gear file for fp, which the caller has just
// missed in the level-1 cache: it joins fp's flight if one is in
// progress — the replay's or a readahead's included, so nothing is
// fetched twice — and leads the download otherwise. size is the
// object's size in the index, which the transfer holds in the gate's
// budget. The record is what this call itself moved, for the caller to
// account with whatever else shares its round trip.
func (s *Store) fetchOne(fp hashing.Fingerprint, size int64) (*vfs.Content, Transfer, error) {
	start := s.enterDemand(size)
	defer s.leaveDemand(size, start)
	t := Transfer{Class: telemetry.ClassDemand}
	f, led := s.claim(fp)
	if led {
		t, _ = s.lead([]*flight{f}, classDemand, false)
	} else {
		<-f.done
		t.Joined = f.err == nil
	}
	t.Op, t.Ref, t.Wall = "fault", refPrefix(fp), time.Since(start)
	if f.err != nil {
		return nil, t, f.err
	}
	s.noteDemandMiss(fp, int64(len(f.content.Data())))
	return f.content, t, nil
}

// refPrefix abbreviates a fingerprint for trace spans.
func refPrefix(fp hashing.Fingerprint) string {
	const n = 12
	if len(fp) <= n {
		return string(fp)
	}
	return string(fp[:n])
}

// StreamStat is a tally of transferred objects: one worker's share of a
// fetch window, or everything a transfer moved over one link.
type StreamStat struct {
	// Objects is how many Gear files were transferred.
	Objects int `json:"objects"`
	// Bytes is the wire volume moved.
	Bytes int64 `json:"bytes"`
	// Batched reports whether the worker used one DownloadBatch round
	// trip (true) or per-object downloads (false).
	Batched bool `json:"batched"`
}

func (st *StreamStat) add(objects int, bytes int64) {
	st.Objects += objects
	st.Bytes += bytes
}

// Transfer is the one record of what a store operation moved over the
// network. Every fetch path fills one and hands it, by value, to account,
// which derives the store.* counters, the trace spans and the OnTransfer
// call from it — so the three always describe the same objects and bytes.
type Transfer struct {
	// Op names the operation as its spans do: "fault" (a blocking
	// whole-object or chunk fault), "rangefault", "readahead", or "fetch"
	// (a FetchAll window).
	Op string
	// Class is telemetry.ClassDemand, or telemetry.ClassPrefetch for
	// readahead and profile replay.
	Class string
	// Ref is the fingerprint prefix when the transfer is of one object.
	Ref string
	// Registry is what the registry served over the WAN, Peer what cluster
	// peers served over the LAN.
	Registry, Peer StreamStat
	// Window, when set, is Registry as the concurrent worker streams of a
	// FetchAll, which shared the link; otherwise the objects were
	// pipelined in one round trip.
	Window []StreamStat
	// Joined reports a fault that moved nothing itself: it waited for
	// another transfer's flight to deliver the object.
	Joined bool
	// Wall is how long the reader was blocked, in host wall time
	// (time.Since), not virtual time, so it is not reproducible across
	// runs until the store takes an injected clock (ROADMAP item 4(a)).
	// Background and window transfers are not timed.
	Wall time.Duration
}

func (t *Transfer) add(o Transfer) {
	t.Registry.add(o.Registry.Objects, o.Registry.Bytes)
	t.Peer.add(o.Peer.Objects, o.Peer.Bytes)
}

// account is the one way out of the fetch pipeline into telemetry. Each
// part is traced on its own, a span per source that served it; the parts
// together — the chunk faults of one span read, which share a round trip,
// or the single record of anything else — move the store.* counters once
// and are priced by one OnTransfer call. What crossed the wire is
// accounted whether or not the operation went on to succeed.
func (s *Store) account(parts ...Transfer) {
	if len(parts) == 0 {
		return
	}
	sum := parts[0]
	for _, t := range parts[1:] {
		sum.add(t)
		sum.Ref, sum.Joined, sum.Wall = "", false, max(sum.Wall, t.Wall)
	}
	for _, t := range parts {
		span := telemetry.Span{Op: t.Op, Ref: t.Ref, Class: t.Class, Transfer: t.Wall}
		if t.Joined {
			span.Source, span.Objects = telemetry.SourceCache, 1
			span.QueueWait, span.Transfer = t.Wall, 0
			s.opts.Trace.Record(span)
		}
		if t.Peer.Objects > 0 {
			span.Source, span.Objects, span.Bytes = telemetry.SourcePeer, t.Peer.Objects, t.Peer.Bytes
			s.opts.Trace.Record(span)
		}
		if t.Registry.Objects > 0 {
			span.Source, span.Objects, span.Bytes = telemetry.SourceRegistry, t.Registry.Objects, t.Registry.Bytes
			s.opts.Trace.Record(span)
		}
	}
	reg, peer := sum.Registry, sum.Peer
	if reg.Objects == 0 && peer.Objects == 0 {
		return
	}
	s.m.remoteObjects.Add(int64(reg.Objects))
	s.m.remoteBytes.Add(reg.Bytes)
	s.m.peerObjects.Add(int64(peer.Objects))
	s.m.peerBytes.Add(peer.Bytes)
	if sum.Class == telemetry.ClassPrefetch {
		s.m.prefetchObjects.Add(int64(reg.Objects))
		s.m.prefetchBytes.Add(reg.Bytes)
	}
	if s.opts.OnTransfer != nil {
		s.opts.OnTransfer(sum)
	}
}

// FetchWindow summarizes one FetchAll call: the concurrent registry
// streams that shared the WAN link. Peer-served transfers are not part
// of the window — they ride the LAN, and OnTransfer reports them beside
// it. The deployment simulator converts the window into netsim
// fair-share streams.
type FetchWindow struct {
	Streams []StreamStat `json:"streams"`
	// Prefetch reports that the window was issued by a startup-profile
	// replay rather than a demand fetch, so observers can price or rank
	// it as background traffic.
	Prefetch bool `json:"prefetch,omitempty"`
}

// Objects returns the total object count across streams.
func (w FetchWindow) Objects() int {
	var n int
	for _, st := range w.Streams {
		n += st.Objects
	}
	return n
}

// Bytes returns the total wire bytes across streams.
func (w FetchWindow) Bytes() int64 {
	var n int64
	for _, st := range w.Streams {
		n += st.Bytes
	}
	return n
}

// FetchAll materializes every given Gear file into the level-1 cache
// using up to FetchWorkers concurrent workers, each issuing one
// DownloadBatch round trip. Fingerprints already cached or already
// being fetched by another goroutine are not downloaded again.
//
// The returned window describes only the transfers this call performed,
// which are accounted once, as one window.
func (s *Store) FetchAll(fps []hashing.Fingerprint) (FetchWindow, error) {
	return s.fetchAll(fps, s.opts.FetchWorkers, classDemand)
}

// fetchAll is FetchAll with the worker count and fetch class explicit.
// The call holds the gate under its class for its duration — a demand
// call holds replays back, a replay call waits until no demand is active
// — but no bytes: the sizes of bare fingerprints are not known.
func (s *Store) fetchAll(fps []hashing.Fingerprint, maxWorkers int, class fetchClass) (FetchWindow, error) {
	s.gate.enter(class, 0)
	defer s.gate.leave(class, 0)
	// Deduplicate, drop what is already local, and claim or join flights.
	seen := make(map[hashing.Fingerprint]bool, len(fps))
	var claimed, joined []*flight
	for _, fp := range fps {
		if seen[fp] || s.cache.Contains(fp) {
			continue
		}
		seen[fp] = true
		if f, lead := s.claim(fp); lead {
			claimed = append(claimed, f)
		} else {
			joined = append(joined, f)
		}
	}

	var errs []error
	t := Transfer{Op: "fetch", Class: class.label()}
	if len(claimed) > 0 {
		workers := max(min(maxWorkers, len(claimed)), 1)
		parts := make([]Transfer, workers)
		workerErrs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			// Contiguous balanced shards: worker w takes [lo, hi).
			lo := w * len(claimed) / workers
			hi := (w + 1) * len(claimed) / workers
			wg.Add(1)
			go func(w int, shard []*flight) {
				defer wg.Done()
				parts[w], workerErrs[w] = s.lead(shard, class, true)
			}(w, claimed[lo:hi])
		}
		wg.Wait()
		for w, part := range parts {
			if part.Registry.Objects > 0 {
				t.Window = append(t.Window, part.Registry)
			}
			t.add(part)
			if workerErrs[w] != nil {
				errs = append(errs, workerErrs[w])
			}
		}
		s.account(t)
	}
	for _, f := range joined {
		<-f.done
		if f.err != nil {
			errs = append(errs, f.err)
		}
	}
	return FetchWindow{Streams: t.Window, Prefetch: class == classReplay}, errors.Join(errs...)
}

// verify checks a payload against its content address; collision
// fallback IDs ("<fp>-cN") are accepted as-is.
func verify(fp hashing.Fingerprint, data []byte) error {
	if len(fp) == 32 && hashing.FingerprintBytes(data) != fp {
		return fmt.Errorf("store: download %s: %w", fp, ErrCorruptDownload)
	}
	return nil
}
