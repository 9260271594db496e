package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// chunkSpan locates the chunks overlapping [off, off+n): the index
// range [lo, hi) and the file offset at which chunk lo starts.
func chunkSpan(chunks []index.Chunk, off, n int64) (lo, hi int, loOff int64) {
	var pos int64
	lo = -1
	for i, ch := range chunks {
		end := pos + ch.Size
		if end > off && pos < off+n {
			if lo < 0 {
				lo = i
				loOff = pos
			}
			hi = i + 1
		}
		if pos >= off+n {
			break
		}
		pos = end
	}
	if lo < 0 {
		return 0, 0, 0
	}
	return lo, hi, loOff
}

// fetchChunks faults the given chunks concurrently, each through the
// gate's byte budget, and returns their contents in order. Chunks
// already cached are served without touching the gate. The last missed
// chunk is faulted on the caller's goroutine, each other one on its own
// beside it: a read that misses one chunk starts no goroutine. What the
// call itself moved is accounted as one transfer before it returns,
// whether or not every chunk arrived.
func (s *Store) fetchChunks(chunks []index.Chunk) ([]*vfs.Content, error) {
	out := make([]*vfs.Content, len(chunks))
	faults := Transfer{Op: "fault", Class: telemetry.ClassDemand}
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	fault := func(i int) {
		s.m.chunkDemand.Inc()
		c, t, err := s.fetchOne(chunks[i].Fingerprint, chunks[i].Size)
		mu.Lock()
		defer mu.Unlock()
		out[i] = c
		faults.add(t)
		if err != nil {
			errs = append(errs, err)
		}
	}
	last := -1
	for i, ch := range chunks {
		if c, ok := s.cache.Get(ch.Fingerprint); ok {
			s.noteDemandHit(ch.Fingerprint)
			out[i] = c
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fault(i)
			}(last)
		}
		last = i
	}
	if last >= 0 {
		fault(last)
		wg.Wait()
		s.account(faults)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// readahead opportunistically fetches the next chunks after a demanded
// span in the background, each admitted only if the gate has spare
// budget and no demand read is waiting on it. A readahead leads a
// flight like any fetch, so a demand read of the same chunk joins it
// instead of downloading again; if another flight already has the
// chunk, the admission is simply returned.
func (s *Store) readahead(chunks []index.Chunk) {
	for _, ch := range chunks {
		if s.cache.Contains(ch.Fingerprint) {
			continue
		}
		if !s.gate.enter(classReadahead, ch.Size) {
			return
		}
		s.bg.Add(1)
		go func(ch index.Chunk) {
			defer s.bg.Done()
			defer s.gate.leave(classReadahead, ch.Size)
			f, led := s.claim(ch.Fingerprint)
			if !led {
				return
			}
			t, err := s.lead([]*flight{f}, classReadahead, false)
			t.Op = "readahead"
			s.account(t)
			if err == nil {
				s.m.chunkReadahead.Inc()
			}
		}(ch)
	}
}

// WaitReadahead blocks until every background readahead in flight has
// completed — the quiescence point experiments and tests measure at.
func (s *Store) WaitReadahead() { s.bg.Wait() }

// rangeRead is the non-chunked partial-read fast path: with
// Options.RangeReads set, a ranged fault moves only the requested bytes
// instead of materializing the file. The slice is served uncompressed
// and is NOT cached — it is not the whole verifiable object — so
// repeated cold partial reads re-fetch; a workload that re-reads should
// materialize instead. ok=false says the range verb does not serve this
// read — the option is off (the default), the range runs past the file's
// end, or the registry does not hold the object — and the caller
// materializes the file, whose own clamping and error reporting take
// over; any other failure is the read's error. The reply is at most n
// bytes, so n is what the transfer holds of the gate's budget.
func (s *Store) rangeRead(key []byte, off, n int64) (data []byte, ok bool, err error) {
	if !s.opts.RangeReads || s.opts.Remote == nil {
		return nil, false, nil
	}
	if fp, c, ok := s.cache.Probe(key); ok {
		s.noteDemandHit(fp)
		return sliceRange(c.Data(), off, n), true, nil
	}
	fp := hashing.Fingerprint(key)
	start := s.enterDemand(n)
	defer s.leaveDemand(n)
	payload, wire, err := s.opts.Remote.DownloadRange(fp, off, n)
	if errors.Is(err, gearregistry.ErrBadRange) || errors.Is(err, gearregistry.ErrNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: range read %s: %w", fp, err)
	}
	s.noteDemandMiss(fp, int64(len(payload)))
	s.m.rangeReads.Inc()
	s.account(Transfer{
		Op: "rangefault", Class: telemetry.ClassDemand,
		Registry: StreamStat{Objects: 1, Bytes: wire}, Stall: time.Since(start),
	})
	return payload, true, nil
}
