package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gear/store"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/shardreg"
	"github.com/gear-image/gear/internal/tarstream"
)

// Layer probes: direct timed calls into one layer at a time, on the
// workload's own data, after the traced schedule. They cover the layers
// no span isolates (codec, hashing, cache, pool) and the verbs and the
// shard tier no workload drives.

const (
	probeObjects    = 32      // objects a probe cycles over
	probeBytes      = 8 << 20 // cap on their total size
	probeSampleSize = 4 << 20 // payload of the throughput probes
)

type probeObject struct {
	path string
	fp   hashing.Fingerprint
	data []byte
}

// probeInput is the slice of a workload's data the probes run on: one
// published image's index and some of the Gear files it references.
type probeInput struct {
	rig     *rig
	ixImage *imagefmt.Image
	ix      *index.Index
	objects []probeObject
	sample  []byte
}

// newProbeInput picks the image name:tag of the rig and up to
// probeObjects of its un-chunked files — those at paths, or the first
// the index lists.
func newProbeInput(r *rig, name, tag string, paths []string) (*probeInput, error) {
	ixImage, err := registry.Pull(r.docker, name, tag)
	if err != nil {
		return nil, fmt.Errorf("probe input: %w", err)
	}
	ix, err := index.FromImage(ixImage)
	if err != nil {
		return nil, fmt.Errorf("probe input: %w", err)
	}
	p := &probeInput{rig: r, ixImage: ixImage, ix: ix}
	if len(paths) == 0 {
		paths = regularFiles(ix.Root, "", nil)
	}
	seen := make(map[hashing.Fingerprint]bool)
	total := 0
	for _, path := range paths {
		e := ix.Lookup(path)
		if e == nil || len(e.Chunks) > 0 || e.Size == 0 || seen[e.Fingerprint] {
			continue
		}
		data, _, err := r.pool.Download(e.Fingerprint)
		if err != nil {
			return nil, fmt.Errorf("probe input: %w", err)
		}
		if total+len(data) > probeBytes {
			break
		}
		seen[e.Fingerprint] = true
		total += len(data)
		p.objects = append(p.objects, probeObject{path: path, fp: e.Fingerprint, data: data})
		if len(p.objects) == probeObjects {
			break
		}
	}
	if len(p.objects) == 0 {
		return nil, fmt.Errorf("probe input: %s:%s has no un-chunked file to probe with", name, tag)
	}
	for len(p.sample) < probeSampleSize {
		for _, o := range p.objects {
			p.sample = append(p.sample, o.data...)
		}
	}
	p.sample = p.sample[:probeSampleSize]
	return p, nil
}

// regularFiles lists the paths of an index subtree's regular files.
func regularFiles(e *index.Entry, dir string, out []string) []string {
	for _, ch := range e.Children {
		p := dir + "/" + ch.Name
		if len(ch.Children) > 0 {
			out = regularFiles(ch, p, out)
		} else if ch.Fingerprint != "" {
			out = append(out, p)
		}
	}
	return out
}

// probeRun collects probe results; after the first failure the remaining
// probes are skipped and err holds the cause.
type probeRun struct {
	*probeInput
	budget time.Duration // wall time spent on each probe
	out    map[string]float64
	err    error
}

// perCall repeats fn for about the budget and returns the mean
// nanoseconds per call. fn receives the iteration number.
func (r *probeRun) perCall(name string, fn func(i int) error) float64 {
	if r.err != nil {
		return 0
	}
	start := time.Now()
	n := 0
	for time.Since(start) < r.budget {
		if err := fn(n); err != nil {
			r.err = fmt.Errorf("probe %s: %w", name, err)
			return 0
		}
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func (r *probeRun) ns(name string, fn func(i int) error) { r.out[name] = r.perCall(name, fn) }

func (r *probeRun) us(name string, fn func(i int) error) { r.out[name] = r.perCall(name, fn) / 1e3 }

// mbps times fn over the sample and reports sample megabytes per second.
func (r *probeRun) mbps(name string, fn func() error) {
	if ns := r.perCall(name, func(int) error { return fn() }); ns > 0 {
		r.out[name] = float64(len(r.sample)) / 1e6 / (ns / 1e9)
	}
}

func (p *probeInput) obj(i int) *probeObject { return &p.objects[i%len(p.objects)] }

// runProbes returns every probe metric, spending budget on each.
func runProbes(p *probeInput, budget time.Duration) (map[string]float64, error) {
	r := &probeRun{probeInput: p, budget: budget, out: make(map[string]float64)}
	fps := make([]hashing.Fingerprint, len(p.objects))
	for i, o := range p.objects {
		fps[i] = o.fp
	}

	// The index codec.
	bin, err := index.EncodeBinary(p.ix)
	if err != nil {
		return nil, err
	}
	r.us("index.from_image_us", func(int) error { _, err := index.FromImage(p.ixImage); return err })
	r.us("index.decode_us", func(int) error { _, err := index.DecodeBinary(bin); return err })
	r.us("index.encode_us", func(int) error { _, err := index.EncodeBinary(p.ix); return err })
	r.us("index.to_tree_us", func(int) error { _, err := p.ix.ToTree(); return err })
	pol := index.CDCChunks(chunkAvgBytes)
	r.mbps("index.cdc_split_mbps", func() error { _, err := pol.Split(p.sample); return err })

	// Compression and hashing.
	gz, err := tarstream.Gzip(p.sample)
	if err != nil {
		return nil, err
	}
	r.mbps("tarstream.gzip_mbps", func() error { _, err := tarstream.Gzip(p.sample); return err })
	r.mbps("tarstream.gunzip_mbps", func() error { _, err := tarstream.Gunzip(gz); return err })
	r.mbps("hashing.fingerprint_mbps", func() error { hashing.FingerprintBytes(p.sample); return nil })

	r.probeCache()
	r.probeStore(fps)

	// The pool's verbs, called in process.
	pool := p.rig.pool
	r.us("gearregistry.pool_download_us", func(i int) error { _, _, err := pool.Download(p.obj(i).fp); return err })
	r.us("gearregistry.pool_range_us", func(i int) error {
		o := p.obj(i)
		_, _, err := pool.DownloadRange(o.fp, 0, min(rangeReadBytes, int64(len(o.data))))
		return err
	})
	var fresh *gearregistry.Registry
	r.us("gearregistry.pool_upload_us", func(i int) error {
		if i%len(p.objects) == 0 {
			fresh = gearregistry.New(gearregistry.Options{Compress: true})
		}
		return fresh.Upload(p.obj(i).fp, p.obj(i).data)
	})
	r.us("gearregistry.pool_querybatch_us", func(int) error { _, err := pool.QueryBatch(fps); return err })

	r.probeShards(fps)
	return r.out, r.err
}

// probeCache times Get and Put on a fresh unbounded cache from two
// goroutines at once, the contention the two clients produce.
func (r *probeRun) probeCache() {
	c, err := cache.New(0, cache.LRU)
	if err != nil && r.err == nil {
		r.err = err
	}
	// Distinct keys per goroutine; the cache does not verify them.
	key := func(g, i int) hashing.Fingerprint {
		return hashing.Fingerprint(fmt.Sprintf("%016x%016x", g, i))
	}
	// both runs fn on every goroutine for the budget and returns how many
	// calls each made; the metric is the time per call of the busiest.
	both := func(name string, fn func(g, i int) error) (calls [numClients]int) {
		if r.err != nil {
			return calls
		}
		var wg sync.WaitGroup
		var errs [numClients]error
		start := time.Now()
		for g := 0; g < numClients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for errs[g] == nil && (calls[g] == 0 || time.Since(start) < r.budget) {
					errs[g] = fn(g, calls[g])
					calls[g]++
				}
			}(g)
		}
		wg.Wait()
		r.out[name] = float64(time.Since(start).Nanoseconds()) / float64(max(calls[0], calls[1]))
		if err := errors.Join(errs[:]...); err != nil {
			r.err = fmt.Errorf("probe %s: %w", name, err)
		}
		return calls
	}
	data := r.objects[0].data
	stored := both("cache.put_ns", func(g, i int) error { _, err := c.Put(key(g, i), data); return err })
	both("cache.get_ns", func(g, i int) error {
		if _, ok := c.Get(key(g, i%stored[g])); !ok {
			return fmt.Errorf("key %d/%d missing", g, i%stored[g])
		}
		return nil
	})
}

// probeStore times the batch verb no workload drives — FetchAll of the
// probe objects into a fresh store over HTTP — and then, on the store it
// warmed, a resolve and a whole-file read that hit.
func (r *probeRun) probeStore(fps []hashing.Fingerprint) {
	ref := r.ix.Reference()
	var warm *store.Store
	var fetch time.Duration
	calls := 0
	r.perCall("store.fetchall_us", func(int) error {
		s, err := store.New(store.Options{
			Remote: gearregistry.NewClient(r.rig.gearURL, nil), FetchWorkers: 4,
		})
		if err != nil {
			return err
		}
		if err := s.AddIndex(r.ix); err != nil {
			return err
		}
		start := time.Now() // only the fetch is the probe
		_, err = s.FetchAll(fps)
		fetch += time.Since(start)
		calls++
		warm = s
		return err
	})
	if r.err != nil {
		return
	}
	r.out["store.fetchall_us"] = float64(fetch.Microseconds()) / float64(calls)

	v, err := warm.CreateContainer("probe", ref)
	if err != nil {
		r.err = err
		return
	}
	for _, o := range r.objects { // link every object into the index tree
		if _, err := v.ReadFile(o.path); err != nil {
			r.err = err
			return
		}
	}
	r.ns("store.resolve_hit_ns", func(i int) error {
		o := r.obj(i)
		_, err := warm.Resolve(ref, o.path, o.fp, int64(len(o.data)))
		return err
	})
	r.us("viewer.readfile_hit_us", func(i int) error { _, err := v.ReadFile(r.obj(i).path); return err })
}

// probeShards times the shard tier's read verbs on 4 shards x 2 replicas
// holding the probe objects. The tier has no member wire yet, so it gets
// probes, not a workload.
func (r *probeRun) probeShards(fps []hashing.Fingerprint) {
	newCluster := func(read shardreg.ReadOptions) *shardreg.Cluster {
		c, err := shardreg.New(shardreg.Options{
			Shards: []string{"s0", "s1", "s2", "s3"}, Replication: 2, Compress: true, Read: read,
		})
		for i := 0; err == nil && i < len(r.objects); i++ {
			err = c.Upload(r.objects[i].fp, r.objects[i].data)
		}
		if err != nil && r.err == nil {
			r.err = fmt.Errorf("probe shardreg: %w", err)
		}
		return c
	}
	plain := newCluster(shardreg.ReadOptions{})
	hedged := newCluster(shardreg.ReadOptions{Balance: true, Hedge: true})
	r.us("shardreg.download_us", func(i int) error { _, _, err := plain.Download(r.obj(i).fp); return err })
	r.us("shardreg.batch_us", func(int) error { _, _, err := plain.DownloadBatch(fps); return err })
	r.us("shardreg.range_us", func(i int) error {
		o := r.obj(i)
		_, _, err := plain.DownloadRange(o.fp, 0, min(rangeReadBytes, int64(len(o.data))))
		return err
	})
	r.us("shardreg.hedged_download_us", func(i int) error { _, _, err := hedged.Download(r.obj(i).fp); return err })
}
