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

// flight is one in-progress remote download. Concurrent faults on the
// same fingerprint join the first caller's flight instead of issuing
// duplicate downloads (singleflight).
type flight struct {
	done    chan struct{}
	content *vfs.Content
	err     error
}

// claimFlight registers a flight for fp, or joins the one in progress.
func (s *Store) claimFlight(fp hashing.Fingerprint) (f *flight, leader bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if f, ok := s.flights[fp]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	s.flights[fp] = f
	return f, true
}

// finishFlight publishes the flight's result and releases waiters.
func (s *Store) finishFlight(fp hashing.Fingerprint, f *flight) {
	s.flightMu.Lock()
	delete(s.flights, fp)
	s.flightMu.Unlock()
	close(f.done)
}

// fetchSource reports which source satisfied a fetch: locally (cache
// hit or a flight another goroutine led — no wire bytes spent by this
// call), a cluster peer over the LAN, or the registry over the WAN.
type fetchSource int

const (
	srcLocal fetchSource = iota
	srcPeer
	srcRegistry
)

// fetchOne obtains the Gear file for fp: level-1 cache, then an
// in-progress flight, then a download it leads itself (peers before
// registry). src reports which source this call spent wire bytes on;
// joiners and cache hits return srcLocal. The caller is responsible
// for transfer accounting; fetchOne itself accounts demand stall —
// every call is a foreground read, so time spent past the cache lookup
// is a container blocked on the network. Registering the demand with
// the scheduler pauses further prefetch admission until the miss is
// served; a fingerprint the replay is already moving is joined via its
// flight, never fetched twice.
func (s *Store) fetchOne(fp hashing.Fingerprint) (c *vfs.Content, wire int64, src fetchSource, err error) {
	if c, ok := s.cache.Get(fp); ok {
		s.noteDemandHit(fp)
		return c, 0, srcLocal, nil
	}
	s.sched.beginDemand()
	start := time.Now()
	defer func() {
		stall := time.Since(start)
		s.m.stallNanos.Add(stall.Nanoseconds())
		s.m.stall.ObserveDuration(stall)
		s.sched.endDemand()
	}()
	f, leader := s.claimFlight(fp)
	if !leader {
		<-f.done
		if f.err == nil && f.content != nil {
			s.noteDemandMiss(fp, int64(len(f.content.Data())))
			s.opts.Trace.Record(telemetry.Span{
				Op: "fault", Ref: refPrefix(fp), Class: telemetry.ClassDemand,
				Source: telemetry.SourceCache, Objects: 1,
				QueueWait: time.Since(start),
			})
		}
		return f.content, 0, srcLocal, f.err
	}
	defer s.finishFlight(fp, f)
	// Re-check after claiming: a previous leader may have completed
	// between our miss and our claim. Contains leaves hit/miss stats
	// untouched, so the race does not distort cache accounting.
	if s.cache.Contains(fp) {
		if c, ok := s.cache.Get(fp); ok {
			f.content = c
			s.noteDemandHit(fp)
			return c, 0, srcLocal, nil
		}
	}
	data, wire, fromPeer, err := s.download(fp)
	if err != nil {
		f.err = err
		return nil, 0, srcLocal, err
	}
	c, err = s.cache.Put(fp, data)
	if err != nil {
		f.err = fmt.Errorf("store: cache %s: %w", fp, err)
		return nil, 0, srcLocal, f.err
	}
	f.content = c
	s.noteDemandMiss(fp, int64(len(data)))
	source := telemetry.SourceRegistry
	if fromPeer {
		source = telemetry.SourcePeer
	}
	s.opts.Trace.Record(telemetry.Span{
		Op: "fault", Ref: refPrefix(fp), Class: telemetry.ClassDemand,
		Source: source, Objects: 1, Bytes: wire,
		Transfer: time.Since(start),
	})
	if fromPeer {
		return c, wire, srcPeer, nil
	}
	return c, wire, srcRegistry, nil
}

// refPrefix abbreviates a fingerprint for trace spans.
func refPrefix(fp hashing.Fingerprint) string {
	const n = 12
	if len(fp) <= n {
		return string(fp)
	}
	return string(fp[:n])
}

// StreamStat describes one worker's share of a fetch window.
type StreamStat struct {
	// Objects is how many Gear files the worker transferred.
	Objects int `json:"objects"`
	// Bytes is the wire volume the worker moved.
	Bytes int64 `json:"bytes"`
	// Batched reports whether the worker used one DownloadBatch round
	// trip (true) or per-object downloads (false).
	Batched bool `json:"batched"`
}

// FetchWindow summarizes one FetchAll call: the concurrent registry
// streams that shared the WAN link. Peer-served transfers are not part
// of the window — they ride the LAN and are reported through
// OnPeerFetch instead. The deployment simulator converts the window
// into netsim fair-share streams.
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
// using up to FetchWorkers concurrent workers. Each worker issues one
// DownloadBatch round trip when the remote supports it, or per-object
// downloads otherwise. Fingerprints already cached or already being
// fetched by another goroutine are not downloaded again.
//
// The returned window describes only the transfers this call performed;
// accounting hooks (OnFetchWindow, or OnRemoteFetch as a fallback) fire
// once for the whole window.
func (s *Store) FetchAll(fps []hashing.Fingerprint) (FetchWindow, error) {
	return s.fetchAll(fps, s.opts.FetchWorkers, classDemand)
}

// fetchAll is FetchAll with the worker count and fetch class explicit.
// Demand-class calls register with the scheduler for their duration
// (pausing prefetch admission); prefetch-class calls tag the window and
// mark what they admit for hit/waste accounting.
func (s *Store) fetchAll(fps []hashing.Fingerprint, maxWorkers int, class fetchClass) (FetchWindow, error) {
	if class == classDemand {
		s.sched.beginDemand()
		defer s.sched.endDemand()
	}
	// Deduplicate, drop what is already local, and claim or join flights.
	seen := make(map[hashing.Fingerprint]bool, len(fps))
	var claimed []hashing.Fingerprint
	claimedFlights := make(map[hashing.Fingerprint]*flight)
	var joined []*flight
	for _, fp := range fps {
		if seen[fp] {
			continue
		}
		seen[fp] = true
		if s.cache.Contains(fp) {
			continue
		}
		f, leader := s.claimFlight(fp)
		if !leader {
			joined = append(joined, f)
			continue
		}
		// Re-check after claiming, as fetchOne does: a fault that led
		// fp's previous flight may have finished between the miss above
		// and this claim, and leading a second download would fetch the
		// file twice.
		if c, ok := s.cache.Peek(fp); ok {
			f.content = c
			s.finishFlight(fp, f)
			continue
		}
		claimed = append(claimed, fp)
		claimedFlights[fp] = f
	}

	var errs []error
	if len(claimed) > 0 {
		workers := min(maxWorkers, len(claimed))
		if workers < 1 {
			workers = 1
		}
		streams := make([]StreamStat, workers)
		peers := make([]tally, workers)
		workerErrs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			// Contiguous balanced shards: worker w takes [lo, hi).
			lo := w * len(claimed) / workers
			hi := (w + 1) * len(claimed) / workers
			wg.Add(1)
			go func(w int, shard []hashing.Fingerprint) {
				defer wg.Done()
				streams[w], peers[w], workerErrs[w] = s.fetchShard(shard, claimedFlights, class)
			}(w, claimed[lo:hi])
		}
		wg.Wait()
		window := FetchWindow{Prefetch: class == classPrefetch}
		var peerTotal tally
		for w := 0; w < workers; w++ {
			if streams[w].Objects > 0 {
				window.Streams = append(window.Streams, streams[w])
			}
			peerTotal.objects += peers[w].objects
			peerTotal.bytes += peers[w].bytes
			if workerErrs[w] != nil {
				errs = append(errs, workerErrs[w])
			}
		}
		s.recordPeer(peerTotal.objects, peerTotal.bytes)
		spanClass := telemetry.ClassDemand
		if class == classPrefetch {
			spanClass = telemetry.ClassPrefetch
		}
		if peerTotal.objects > 0 {
			s.opts.Trace.Record(telemetry.Span{
				Op: "fetch", Class: spanClass, Source: telemetry.SourcePeer,
				Objects: peerTotal.objects, Bytes: peerTotal.bytes,
			})
		}
		if n := window.Objects(); n > 0 {
			s.m.remoteObjects.Add(int64(n))
			s.m.remoteBytes.Add(window.Bytes())
			if class == classPrefetch {
				s.m.prefetchObjects.Add(int64(n))
				s.m.prefetchBytes.Add(window.Bytes())
			}
			s.opts.Trace.Record(telemetry.Span{
				Op: "fetch", Class: spanClass, Source: telemetry.SourceRegistry,
				Objects: n, Bytes: window.Bytes(),
			})
			switch {
			case s.opts.OnFetchWindow != nil:
				s.opts.OnFetchWindow(window)
			case s.opts.OnRemoteFetch != nil:
				s.opts.OnRemoteFetch(n, window.Bytes())
			}
		}
		for _, f := range joined {
			<-f.done
			if f.err != nil {
				errs = append(errs, f.err)
			}
		}
		return window, errors.Join(errs...)
	}

	for _, f := range joined {
		<-f.done
		if f.err != nil {
			errs = append(errs, f.err)
		}
	}
	return FetchWindow{}, errors.Join(errs...)
}

// fetchShard downloads one worker's shard: peers are tried first for
// every object, then what remains goes to the registry, preferring a
// single batch round trip. Every claimed flight in the shard is
// completed exactly once, whether the shard succeeds or fails. The
// returned StreamStat covers registry transfers (the WAN window); the
// tally covers peer-served transfers. Prefetch-class shards tag every
// object they admit so later demand reads score as prefetch hits.
func (s *Store) fetchShard(shard []hashing.Fingerprint, flights map[hashing.Fingerprint]*flight, class fetchClass) (StreamStat, tally, error) {
	if len(shard) == 0 {
		return StreamStat{}, tally{}, nil
	}
	admitted := func(fp hashing.Fingerprint) {
		if class == classPrefetch {
			s.markPrefetched(fp)
		}
	}
	var peer tally
	var errs []error
	rest := shard
	if s.opts.Peers != nil {
		rest = make([]hashing.Fingerprint, 0, len(shard))
		for _, fp := range shard {
			data, wire, ok := s.fetchFromPeer(fp)
			if !ok {
				rest = append(rest, fp)
				continue
			}
			f := flights[fp]
			c, perr := s.cache.Put(fp, data)
			if perr != nil {
				f.err = fmt.Errorf("store: cache %s: %w", fp, perr)
				errs = append(errs, f.err)
			} else {
				f.content = c
				peer.add(wire)
				admitted(fp)
			}
			s.finishFlight(fp, f)
		}
	}
	if len(rest) == 0 {
		return StreamStat{}, peer, errors.Join(errs...)
	}
	if s.opts.Remote == nil {
		err := fmt.Errorf("store: no remote registry: %w", gearregistry.ErrNotFound)
		for _, fp := range rest {
			f := flights[fp]
			f.err = err
			s.finishFlight(fp, f)
		}
		errs = append(errs, err)
		return StreamStat{}, peer, errors.Join(errs...)
	}

	if bd, ok := s.opts.Remote.(gearregistry.BatchDownloader); ok {
		payloads, wire, err := bd.DownloadBatch(rest)
		if err == nil {
			for i, fp := range rest {
				if verr := verify(fp, payloads[i]); verr != nil {
					err = verr
					break
				}
			}
		}
		if err != nil {
			// All-or-nothing: the whole remainder's flights fail together.
			err = fmt.Errorf("store: batch download: %w", err)
			for _, fp := range rest {
				f := flights[fp]
				f.err = err
				s.finishFlight(fp, f)
			}
			errs = append(errs, err)
			return StreamStat{}, peer, errors.Join(errs...)
		}
		for i, fp := range rest {
			f := flights[fp]
			c, perr := s.cache.Put(fp, payloads[i])
			if perr != nil {
				f.err = fmt.Errorf("store: cache %s: %w", fp, perr)
				errs = append(errs, f.err)
			} else {
				f.content = c
				admitted(fp)
			}
			s.finishFlight(fp, f)
		}
		return StreamStat{Objects: len(rest), Bytes: wire, Batched: true}, peer, errors.Join(errs...)
	}

	var st StreamStat
	for _, fp := range rest {
		f := flights[fp]
		data, wire, fromPeer, err := s.download(fp)
		if err == nil {
			var c *vfs.Content
			c, err = s.cache.Put(fp, data)
			if err != nil {
				err = fmt.Errorf("store: cache %s: %w", fp, err)
			} else {
				f.content = c
				admitted(fp)
				// A peer that announced between our probe above and this
				// retry still counts as peer traffic.
				if fromPeer {
					peer.add(wire)
				} else {
					st.Objects++
					st.Bytes += wire
				}
			}
		}
		f.err = err
		if err != nil {
			errs = append(errs, err)
		}
		s.finishFlight(fp, f)
	}
	return st, peer, errors.Join(errs...)
}

// verify checks a payload against its content address; collision
// fallback IDs ("<fp>-cN") are accepted as-is.
func verify(fp hashing.Fingerprint, data []byte) error {
	if len(fp) == 32 && hashing.FingerprintBytes(data) != fp {
		return fmt.Errorf("store: download %s: %w", fp, ErrCorruptDownload)
	}
	return nil
}
