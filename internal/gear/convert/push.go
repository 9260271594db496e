package convert

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/registry"
)

// DefaultPushWorkers bounds the upload pool when PushOptions.PushWorkers
// is zero.
const DefaultPushWorkers = 8

// PushOptions configures a Pusher.
type PushOptions struct {
	// Gear is the registry uploads go to. Required.
	Gear gearregistry.Store
	// PushWorkers bounds the concurrent upload pool (default
	// DefaultPushWorkers).
	PushWorkers int
	// OnPushWindow, when set, observes every PushAll call that touched
	// the registry — the hook the deployment simulator uses to charge
	// the query round trip and the upload streams to a modeled link
	// (dockersim.PricePushWindow).
	OnPushWindow func(PushWindow)
}

// PushStream describes one upload worker's share of a push window.
type PushStream struct {
	// Objects is how many Gear files the worker uploaded.
	Objects int `json:"objects"`
	// Bytes is the payload volume the worker moved.
	Bytes int64 `json:"bytes"`
}

// PushWindow summarizes one PushAll call: the dedup query and the
// concurrent upload streams that shared the link.
type PushWindow struct {
	// Queried is how many fingerprints were checked against the registry.
	Queried int `json:"queried"`
	// QueryRoundTrips is how many query requests that took: the one
	// QueryBatch.
	QueryRoundTrips int `json:"queryRoundTrips"`
	// Skipped counts files the registry already held (the paper's
	// query-before-upload dedup, §III-C).
	Skipped int `json:"skipped"`
	// Deduped counts files another in-flight PushAll was already
	// uploading; this call joined that flight instead of re-querying or
	// re-uploading (singleflight across concurrent converts).
	Deduped int `json:"deduped"`
	// Streams are the upload workers that actually moved bytes.
	Streams []PushStream `json:"streams"`
}

// Uploaded returns the total object count across upload streams.
func (w PushWindow) Uploaded() int {
	var n int
	for _, st := range w.Streams {
		n += st.Objects
	}
	return n
}

// Bytes returns the total payload bytes across upload streams.
func (w PushWindow) Bytes() int64 {
	var n int64
	for _, st := range w.Streams {
		n += st.Bytes
	}
	return n
}

// pushFlight is one in-progress upload. Concurrent PushAll calls that
// carry the same fingerprint join the first caller's flight instead of
// querying or uploading it again.
type pushFlight struct {
	done chan struct{}
	err  error
}

// Pusher uploads Gear file sets to a registry: one batched dedup query
// for the whole set, then the absent files through a bounded worker
// pool. Pusher is safe for concurrent use; identical fingerprints across
// concurrent pushes upload once.
type Pusher struct {
	opts PushOptions

	flightMu sync.Mutex
	flights  map[hashing.Fingerprint]*pushFlight
}

// NewPusher returns a Pusher uploading to opts.Gear.
func NewPusher(opts PushOptions) (*Pusher, error) {
	if opts.Gear == nil {
		return nil, fmt.Errorf("convert: push: no gear registry: %w", gearregistry.ErrNotFound)
	}
	if opts.PushWorkers < 1 {
		opts.PushWorkers = DefaultPushWorkers
	}
	return &Pusher{opts: opts, flights: make(map[hashing.Fingerprint]*pushFlight)}, nil
}

// claimFlight registers a flight for fp, or joins the one in progress.
func (p *Pusher) claimFlight(fp hashing.Fingerprint) (f *pushFlight, leader bool) {
	p.flightMu.Lock()
	defer p.flightMu.Unlock()
	if f, ok := p.flights[fp]; ok {
		return f, false
	}
	f = &pushFlight{done: make(chan struct{})}
	p.flights[fp] = f
	return f, true
}

// finishFlight publishes the flight's result and releases waiters.
func (p *Pusher) finishFlight(fp hashing.Fingerprint, f *pushFlight) {
	p.flightMu.Lock()
	delete(p.flights, fp)
	p.flightMu.Unlock()
	close(f.done)
}

// PushAll uploads files to the Gear registry, skipping everything the
// registry already holds. The whole fingerprint set dedups in one
// QueryBatch round trip; the absent files then upload through up to
// PushWorkers concurrent workers. Fingerprints
// already being uploaded by a concurrent PushAll are joined, not
// re-sent. The returned window describes only the work this call
// performed.
func (p *Pusher) PushAll(files map[hashing.Fingerprint][]byte) (PushWindow, error) {
	var window PushWindow

	// Deterministic order: iterate the set sorted by fingerprint, so
	// shard assignment (and therefore stream accounting) is stable.
	fps := make([]hashing.Fingerprint, 0, len(files))
	for fp := range files {
		fps = append(fps, fp)
	}
	slices.Sort(fps)

	// Claim or join flights; flights[i] is the one claimed for claimed[i].
	var claimed []hashing.Fingerprint
	var flights, joined []*pushFlight
	for _, fp := range fps {
		f, leader := p.claimFlight(fp)
		if leader {
			claimed = append(claimed, fp)
			flights = append(flights, f)
		} else {
			joined = append(joined, f)
		}
	}
	window.Deduped = len(joined)

	var errs []error
	if len(claimed) > 0 {
		present, err := p.opts.Gear.QueryBatch(claimed)
		if err != nil {
			err = fmt.Errorf("convert: push query: %w", err)
			for i, fp := range claimed {
				flights[i].err = err
				p.finishFlight(fp, flights[i])
			}
			errs = append(errs, err)
		} else {
			window.Queried = len(claimed)
			window.QueryRoundTrips = 1

			// Files the registry already holds are done: dedup hit. The
			// absent ones move up to the front of both slices.
			absent, absentFlights := claimed[:0], flights[:0]
			for i, fp := range claimed {
				if present[i] {
					window.Skipped++
					p.finishFlight(fp, flights[i])
				} else {
					absent, absentFlights = append(absent, fp), append(absentFlights, flights[i])
				}
			}

			// Upload the absent set through the bounded pool.
			if len(absent) > 0 {
				workers := min(p.opts.PushWorkers, len(absent))
				streams := make([]PushStream, workers)
				workerErrs := make([]error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					// Contiguous balanced shards: worker w takes [lo, hi).
					lo := w * len(absent) / workers
					hi := (w + 1) * len(absent) / workers
					wg.Add(1)
					go func() {
						defer wg.Done()
						streams[w], workerErrs[w] = p.pushShard(absent[lo:hi], absentFlights[lo:hi], files)
					}()
				}
				wg.Wait()
				for w := 0; w < workers; w++ {
					if streams[w].Objects > 0 {
						window.Streams = append(window.Streams, streams[w])
					}
					if workerErrs[w] != nil {
						errs = append(errs, workerErrs[w])
					}
				}
			}
		}
	}

	if window.Queried > 0 && p.opts.OnPushWindow != nil {
		p.opts.OnPushWindow(window)
	}

	for _, f := range joined {
		<-f.done
		if f.err != nil {
			errs = append(errs, f.err)
		}
	}
	return window, errors.Join(errs...)
}

// pushShard uploads one worker's shard, flights[i] being shard[i]'s.
// Every claimed flight in the shard is completed exactly once, success
// or failure.
func (p *Pusher) pushShard(shard []hashing.Fingerprint, flights []*pushFlight, files map[hashing.Fingerprint][]byte) (PushStream, error) {
	var st PushStream
	var errs []error
	for i, fp := range shard {
		f := flights[i]
		data := files[fp]
		err := p.opts.Gear.Upload(fp, data)
		if err != nil {
			err = fmt.Errorf("convert: push upload %s: %w", fp, err)
			errs = append(errs, err)
		} else {
			st.Objects++
			st.Bytes += int64(len(data))
		}
		f.err = err
		p.finishFlight(fp, f)
	}
	return st, errors.Join(errs...)
}

// Push publishes a conversion result, and is the only code that does:
// the Gear files go through PushAll, and only once every one of them is
// in the Gear registry does the index image go to the Docker registry
// (it is one tiny image). A push that fails therefore leaves no index
// pullable whose files are missing.
func (p *Pusher) Push(res *Result, docker registry.Store) (indexBytes int64, window PushWindow, err error) {
	window, err = p.PushAll(res.Files)
	if err != nil {
		return 0, window, err
	}
	indexBytes, err = registry.Push(docker, res.IndexImage)
	if err != nil {
		return 0, window, fmt.Errorf("convert: push index: %w", err)
	}
	return indexBytes, window, nil
}
