package store

import (
	"errors"
	"fmt"
	"sync"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/telemetry"
)

// The admission gate. Every transfer the store issues enters it under
// one of three classes:
//
//	demand    — a container is blocked on the bytes right now (a viewer
//	            fault, a ranged read, an explicit FetchAll);
//	readahead — the chunks after a demanded range, fetched in the
//	            background for the same reader;
//	replay    — a startup-profile replay warming the level-1 cache.
//
// One byte budget (Options.ChunkWindowBytes) bounds what demand and
// readahead hold in flight, however large the file or the read. The
// two speculative classes yield to demand at admission, each by the
// rule that fits what it competes for:
//
//	class      holds bytes  waits while                  refused when
//	demand     its size     it does not fit the budget   never
//	readahead  its size     never                        a demand waits, or no room
//	replay     none         any demand is active         never
//
// Readahead serves the reader whose demand is in flight, so running
// beside active demand is its purpose; it must only never take budget a
// blocked demand is waiting for. A replay moves unrelated objects over
// the same link, so it pauses whenever a container is blocked at all.
// Nothing in flight is aborted: the bytes are already moving and are
// wanted anyway. A transfer larger than the whole budget is admitted
// alone rather than never.
type fetchClass int

const (
	classDemand fetchClass = iota
	classReadahead
	classReplay
)

// label is the class as telemetry names it: the two speculative classes
// are both prefetch traffic.
func (c fetchClass) label() string {
	if c == classDemand {
		return telemetry.ClassDemand
	}
	return telemetry.ClassPrefetch
}

// replayGroup is how many profile-replay objects are admitted, and in
// flight, at a time.
const replayGroup = 4

// DefaultChunkWindowBytes is the in-flight byte budget used when
// Options leaves ChunkWindowBytes zero.
const DefaultChunkWindowBytes = 4 << 20

// gate is the admission gate. It is cheap enough to sit on every miss:
// an uncontended transfer touches one mutex twice.
type gate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	budget int64
	// inflight is the admitted byte volume. demand counts active demand
	// transfers, which hold back replays; waiting counts those of them
	// still blocked for budget, which veto readahead.
	inflight int64
	demand   int
	waiting  int
	// peak mirrors into the store.chunk.window.peak gauge: the high-water
	// mark of admitted bytes, the bounded-memory witness.
	peak *telemetry.Gauge
}

func newGate(budget int64, peak *telemetry.Gauge) *gate {
	g := &gate{budget: budget, peak: peak}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter admits one transfer of size bytes (0 when unknown) under class
// c, blocking as the class's rule says. Only readahead can be refused.
func (g *gate) enter(c fetchClass, size int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch c {
	case classDemand:
		g.demand++
		g.waiting++
		for g.inflight > 0 && g.inflight+size > g.budget {
			g.cond.Wait()
		}
		g.waiting--
	case classReadahead:
		if g.waiting > 0 || g.inflight+size > g.budget {
			return false
		}
	case classReplay:
		for g.demand > 0 {
			g.cond.Wait()
		}
	}
	g.inflight += size
	if g.inflight > g.peak.Value() {
		g.peak.Set(g.inflight)
	}
	return true
}

// leave retires a transfer admitted by enter(c, size).
func (g *gate) leave(c fetchClass, size int64) {
	g.mu.Lock()
	g.inflight -= size
	if c == classDemand {
		g.demand--
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// ChunkWindowPeak returns the high-water mark of in-flight bytes —
// never above ChunkWindowBytes unless a single transfer exceeded the
// whole budget and was admitted alone.
func (s *Store) ChunkWindowPeak() int64 { return s.m.windowPeak.Value() }

// recorder returns (creating if needed) the access recorder for ref.
// Recording is enabled by configuring a profile library.
func (s *Store) recorder(ref string) *prefetch.Recorder {
	if s.opts.Profiles == nil {
		return nil
	}
	s.recMu.Lock()
	defer s.recMu.Unlock()
	r, ok := s.recorders[ref]
	if !ok {
		r = prefetch.NewRecorder()
		s.recorders[ref] = r
	}
	return r
}

// record notes a first-class read access for ref's startup profile.
func (s *Store) record(ref string, fp hashing.Fingerprint, size int64) {
	if r := s.recorder(ref); r != nil {
		r.Record(fp, size)
	}
}

// SaveProfile persists ref's recorded access trace into the configured
// profile library. It refuses to replace a persisted profile with a
// shorter trace (a warm redeploy that exits early must not clobber the
// richer profile that warmed it), and reports whether it saved.
func (s *Store) SaveProfile(ref string) (bool, error) {
	if s.opts.Profiles == nil {
		return false, nil
	}
	s.recMu.Lock()
	r := s.recorders[ref]
	s.recMu.Unlock()
	if r == nil || r.Len() == 0 {
		return false, nil
	}
	// A corrupt or version-skewed stored profile decodes with an error
	// and is treated as absent: the fresh trace replaces it.
	if existing, err := s.opts.Profiles.Get(ref); err == nil && len(existing.Entries) >= r.Len() {
		return false, nil
	}
	if err := s.opts.Profiles.Put(r.Snapshot(ref)); err != nil {
		return false, fmt.Errorf("store: save profile %s: %w", ref, err)
	}
	return true, nil
}

// PrefetchResult summarizes one startup-profile replay.
type PrefetchResult struct {
	// Found reports that a usable (present, decodable, right-version)
	// profile existed. False means the deploy ran exactly as without
	// prefetch.
	Found bool `json:"found"`
	// Entries is the profile's recorded access count.
	Entries int `json:"entries"`
	// Requested is how many raw Gear objects (files, or chunks of
	// chunked files) the replay submitted to the fetch engine — entries
	// already cached at admission time are skipped.
	Requested int `json:"requested"`
	// Objects/Bytes are the registry (WAN) transfers the replay itself
	// performed; objects another flight was already fetching are not
	// counted here.
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
	// Windows is the number of admission groups issued (each at most
	// replayGroup wide).
	Windows int `json:"windows"`
	// Failed is how many requested objects the replay could not fetch
	// (gone from the registry, corrupt, unreachable). They are left to
	// lazy faulting: a container that never reads them never notices.
	Failed int `json:"failed,omitempty"`
}

// PrefetchProfile replays ref's persisted startup profile through the
// fetch engine under the replay class: objects are admitted in
// first-access order, replayGroup at a time, only while no demand
// transfer is active. A missing, corrupt, or version-skewed profile is
// not an error — the result reports Found=false and the deploy degrades
// to plain lazy faulting. Objects the replay cannot fetch are counted
// (Failed, store.prefetch.errors) and reported in the joined error, with
// the rest of the profile still replayed; since the replay is only
// speculation, a deploy may proceed on that error. The image's index
// must be installed (chunked files replay as their chunks).
func (s *Store) PrefetchProfile(ref string) (PrefetchResult, error) {
	var res PrefetchResult
	if s.opts.Profiles == nil {
		return res, nil
	}
	p, err := s.opts.Profiles.Get(ref)
	if err != nil {
		return res, nil // absent/corrupt/skewed profile: no prefetch
	}
	s.mu.Lock()
	st, ok := s.indexes[ref]
	s.mu.Unlock()
	if !ok {
		return res, fmt.Errorf("store: prefetch %s: %w", ref, ErrNoIndex)
	}
	res.Found = true
	res.Entries = len(p.Entries)

	// Translate profile entries into raw transfer objects, preserving
	// access order and deduplicating chunks shared between files.
	seen := make(map[hashing.Fingerprint]bool, len(p.Entries))
	var objects []hashing.Fingerprint
	add := func(fp hashing.Fingerprint) {
		if !seen[fp] {
			seen[fp] = true
			objects = append(objects, fp)
		}
	}
	for _, e := range p.Entries {
		if chunks := st.Chunks[e.Fingerprint]; len(chunks) > 0 {
			for _, ch := range chunks {
				add(ch.Fingerprint)
			}
			continue
		}
		add(e.Fingerprint)
	}

	var errs []error
	for lo := 0; lo < len(objects); {
		// Build the next admission group: up to replayGroup objects that
		// are not already local.
		group := make([]hashing.Fingerprint, 0, replayGroup)
		for lo < len(objects) && len(group) < replayGroup {
			if !s.cache.Contains(objects[lo]) {
				group = append(group, objects[lo])
			}
			lo++
		}
		if len(group) == 0 {
			continue
		}
		res.Requested += len(group)
		res.Windows++
		w, err := s.fetchAll(group, len(group), classReplay)
		if err != nil {
			errs = append(errs, err)
			for _, fp := range group {
				if !s.cache.Contains(fp) {
					res.Failed++
				}
			}
		}
		res.Objects += w.Objects()
		res.Bytes += w.Bytes()
	}
	s.m.prefetchErrors.Add(int64(res.Failed))
	return res, errors.Join(errs...)
}

// PrefetchHandle tracks a background profile replay started with
// StartPrefetch.
type PrefetchHandle struct {
	done chan struct{}
	res  PrefetchResult
	err  error
}

// Wait blocks until the replay finishes and returns its result.
func (h *PrefetchHandle) Wait() (PrefetchResult, error) {
	<-h.done
	return h.res, h.err
}

// StartPrefetch runs PrefetchProfile in the background — the
// deployment shape the profile is for: the container starts faulting
// immediately while the replay warms the cache behind it, yielding to
// every demand miss.
func (s *Store) StartPrefetch(ref string) *PrefetchHandle {
	h := &PrefetchHandle{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.res, h.err = s.PrefetchProfile(ref)
	}()
	return h
}

// markPrefetched tags fp as admitted to the cache by a prefetch
// replay; the tag is consumed by the first demand hit (PrefetchHits)
// or remains as waste (PrefetchWasted).
func (s *Store) markPrefetched(fp hashing.Fingerprint) {
	s.prefMu.Lock()
	if !s.prefetched[fp] {
		s.prefetched[fp] = true
		s.m.prefetchWasted.Add(1)
	}
	s.prefMu.Unlock()
}

// noteDemandHit updates prefetch-effectiveness accounting for a demand
// read served from the level-1 cache.
func (s *Store) noteDemandHit(fp hashing.Fingerprint) {
	s.prefMu.Lock()
	if s.prefetched[fp] {
		delete(s.prefetched, fp)
		s.m.prefetchWasted.Add(-1)
		s.m.prefetchHits.Add(1)
	}
	s.prefMu.Unlock()
}

// noteDemandMiss updates stall accounting for a demand read that had
// to wait for contentBytes to arrive (led or joined). A miss on a
// fingerprint the replay was still fetching clears its prefetch tag
// without scoring a hit: the prefetch did not arrive in time.
func (s *Store) noteDemandMiss(fp hashing.Fingerprint, contentBytes int64) {
	s.m.demandMisses.Add(1)
	s.m.stallBytes.Add(contentBytes)
	s.prefMu.Lock()
	if s.prefetched[fp] {
		delete(s.prefetched, fp)
		s.m.prefetchWasted.Add(-1)
	}
	s.prefMu.Unlock()
}
