package main

import (
	"bytes"
	"crypto/md5"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gear/store"
	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// numClients is fixed: a closed loop of two clients on two cores. Client
// c executes ops c, c+2, c+4… of the schedule.
const numClients = 2

// sizes are the input dimensions of a run. full is what BENCHMARK.json
// measures; smoke is the same shape at a size the test suite can afford.
type sizes struct {
	corpusScale    float64
	deployVersions int           // versions per series the deploy workloads publish
	pushVersions   int           // versions per series the push workload pushes
	weightsBytes   int64         // the AI image's chunked file
	cacheBytes     int64         // read_chunked L1 capacity: a quarter of weightsBytes
	libs           int           // un-chunked files read_range reads
	libMinBytes    int64         // libs are libMinBytes..2*libMinBytes long
	scheduleOps    int           // schedule length of the deploy and read workloads
	probeBudget    time.Duration // wall time each layer probe gets
}

var (
	fullSizes = sizes{
		corpusScale: 8, deployVersions: 4, pushVersions: 5,
		weightsBytes: 32 << 20, cacheBytes: 8 << 20,
		libs: 24, libMinBytes: 512 << 10, scheduleOps: 3840,
		probeBudget: 40 * time.Millisecond,
	}
	smokeSizes = sizes{
		corpusScale: 0.25, deployVersions: 2, pushVersions: 2,
		weightsBytes: 4 << 20, cacheBytes: 1 << 20,
		libs: 4, libMinBytes: 128 << 10, scheduleOps: 48,
		probeBudget: 4 * time.Millisecond,
	}
)

const (
	chunkAvgBytes    = 256 << 10 // CDC target; files up to 4x this stay whole
	chunkWindowBytes = 2 << 20
	chunkReadahead   = 2
	chunkedReadBytes = 1 << 20
	rangeReadBytes   = 16 << 10
	weightsPath      = "/srv/model/weights.bin"
	modelRef         = "ai/model"
	modelTag         = "v1"
)

// contentSeed fixes what the images and files contain. --seed varies the
// schedule — which image, which offset, in which order — and not the
// corpus: two corpora differ by several percent in bytes per image and
// in compressibility, which would read as run-to-run noise in every
// per-op metric and hide a regression of the same size.
const contentSeed = 20211107

// series are the six image series the deploy and push workloads use.
var series = []string{"alpine", "python", "redis", "nginx", "wordpress", "registry"}

// opResult is what one op reports besides its latency.
type opResult struct {
	wire    int64 // wire bytes only this op can see (index pull, push)
	payload int64 // bytes the op handed its caller
	push    convert.PushWindow
}

// scenario is one workload set up and ready to run.
type scenario interface {
	// ops is the schedule length: one round.
	ops() int
	// do runs op i of the schedule on x's client and, if x.verify, holds
	// its outcome against the oracle.
	do(x *opCtx, i int) (opResult, error)
	// beginRound and endRound bracket each pass over the schedule with
	// all clients parked.
	beginRound() error
	endRound() error
	// wholeRounds reports that a window may only end between rounds.
	wholeRounds() bool
	// quiesce waits for work the ops left running in the background.
	quiesce()
	// clientCounters and serverCounters are the program's own telemetry:
	// the store/cache side and the Gear pool side.
	clientCounters() telemetry.Snapshot
	serverCounters() telemetry.Snapshot
	// wireCounts reads the counts taken at the decorated boundaries.
	wireCounts() wireCounts
	poolStats() gearregistry.Stats
	// check asserts what must hold of this workload's counters over a
	// window.
	check(ctr counters) error
	probeInput() (*probeInput, error)
	close()
}

// base holds what every scenario has and the hooks most leave empty.
type base struct {
	*rig
	wire wireCounters
	tele *telemetry.Registry // every client-side component publishes here
	// cur is the op each client is running, for the decorators' resolvers.
	cur [numClients]atomic.Pointer[opCtx]
}

func (b *base) beginRound() error                  { return nil }
func (b *base) endRound() error                    { return nil }
func (b *base) wholeRounds() bool                  { return false }
func (b *base) quiesce()                           {}
func (b *base) clientCounters() telemetry.Snapshot { return b.tele.Snapshot() }
func (b *base) serverCounters() telemetry.Snapshot { return b.pool.StatsSnapshot() }
func (b *base) poolStats() gearregistry.Stats      { return b.pool.Stats() }
func (b *base) check(counters) error               { return nil }
func (b *base) wireCounts() wireCounts             { return b.wire.read() }

// ownOp resolves every call of a client's private stack to that client's
// current op.
func (b *base) ownOp(client int) func(string) *opCtx {
	return func(string) *opCtx { return b.cur[client].Load() }
}

// ---- deploy_cold / deploy_warm ----

type deployImage struct {
	name, tag string
	access    []string
	sums      map[string][md5.Size]byte // MD5 of each access path in the flattened source image
	bytes     int64
}

type deployScenario struct {
	base
	warm      bool
	images    []deployImage
	sched     []int
	dockerCli [numClients]registry.Store
	gearCli   [numClients]gearregistry.Store
	daemons   [numClients]*dockersim.Daemon // warm only
}

func setupDeploy(cfg config, tr *tracer, warm bool) (scenario, error) {
	s := &deployScenario{base: base{tele: telemetry.NewRegistry()}, warm: warm}
	r, err := newRig(tr, &s.wire)
	if err != nil {
		return nil, err
	}
	s.rig = r
	if err := s.publish(cfg); err != nil {
		r.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for len(s.sched) < cfg.sizes.scheduleOps {
		s.sched = append(s.sched, rng.Perm(len(s.images))...)
	}
	for c := 0; c < numClients; c++ {
		s.dockerCli[c], s.gearCli[c] = r.clients(s.ownOp(c))
	}
	if warm {
		if err := s.prewarm(); err != nil {
			r.close()
			return nil, err
		}
	}
	return s, nil
}

// publish generates, converts and publishes the images in process, and
// records the oracle's expectation from the flattened source images.
func (s *deployScenario) publish(cfg config) error {
	co, err := corpus.New(corpus.Options{
		Seed: contentSeed, Scale: cfg.sizes.corpusScale,
		SeriesFilter: series, MaxVersions: cfg.sizes.deployVersions,
	})
	if err != nil {
		return err
	}
	conv, err := convert.New(convert.Options{})
	if err != nil {
		return err
	}
	type job struct {
		series  string
		version int
	}
	var jobs []job
	for _, sr := range co.Series() {
		for v := 0; v < sr.NumVersions; v++ {
			jobs = append(jobs, job{sr.Name, v})
		}
	}
	s.images = make([]deployImage, len(jobs))
	return inParallel(len(jobs), func(i int) error {
		img, err := co.Image(jobs[i].series, jobs[i].version)
		if err != nil {
			return err
		}
		res, err := conv.Convert(img)
		if err != nil {
			return err
		}
		if _, _, err := convert.Publish(res, s.docker, s.pool); err != nil {
			return err
		}
		items, err := co.NecessarySet(jobs[i].series, jobs[i].version)
		if err != nil {
			return err
		}
		flat, err := img.Flatten()
		if err != nil {
			return err
		}
		im := deployImage{name: img.Manifest.Name, tag: img.Manifest.Tag,
			sums: make(map[string][md5.Size]byte, len(items))}
		for _, it := range items {
			data, err := flat.ReadFile(it.Path)
			if err != nil {
				return fmt.Errorf("necessary set of %s:%s: %w", im.name, im.tag, err)
			}
			im.access = append(im.access, it.Path)
			im.sums[it.Path] = md5.Sum(data)
			im.bytes += int64(len(data))
		}
		s.images[i] = im
		return nil
	})
}

// inParallel runs fn(0..n-1) on one goroutine per client-side core and
// returns the first error. Set-up uses it; the measured loop never does.
func inParallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, numClients)
	for g := 0; g < numClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for errs[g] == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[g] = fn(i)
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *deployScenario) newDaemon(c int) (*dockersim.Daemon, error) {
	return dockersim.NewDaemon(s.dockerCli[c], s.gearCli[c], dockersim.Options{
		Link: netsim.DefaultLAN(), Telemetry: s.tele,
	})
}

// prewarm gives each client its long-lived daemon and fills its
// unbounded L1 cache with every image's access set.
func (s *deployScenario) prewarm() error {
	for c := 0; c < numClients; c++ {
		d, err := s.newDaemon(c)
		if err != nil {
			return err
		}
		s.daemons[c] = d
		for i := range s.images {
			im := &s.images[i]
			dep, err := d.DeployGear(im.name, im.tag, im.access, 0)
			if err != nil {
				return err
			}
			if err := teardown(d, dep); err != nil {
				return err
			}
		}
	}
	return nil
}

// teardown returns a warm daemon to "image not present, cache full".
func teardown(d *dockersim.Daemon, dep *dockersim.Deployment) error {
	if _, err := dep.Destroy(); err != nil {
		return err
	}
	if err := d.GearStore().RemoveIndex(dep.Ref); err != nil {
		return err
	}
	d.ClearLayerCache()
	return nil
}

func (s *deployScenario) ops() int { return len(s.sched) }

func (s *deployScenario) do(x *opCtx, i int) (opResult, error) {
	s.cur[x.client].Store(x)
	defer s.cur[x.client].Store(nil)
	im := &s.images[s.sched[i]]
	d := s.daemons[x.client]
	if !s.warm {
		sp := x.begin(layerDeploy, "new_daemon")
		var err error
		d, err = s.newDaemon(x.client)
		sp.end(err)
		if err != nil {
			return opResult{}, err
		}
	}
	sp := x.begin(layerDeploy, "deploy_gear")
	dep, err := d.DeployGear(im.name, im.tag, im.access, 0)
	sp.end(err)
	if err != nil {
		return opResult{}, err
	}
	res := opResult{wire: dep.Pull.Bytes, payload: im.bytes}
	if x.verify {
		if err := im.verify(dep); err != nil {
			return res, err
		}
	}
	if s.warm {
		sp := x.begin(layerDeploy, "teardown")
		err = teardown(d, dep)
		sp.end(err)
	}
	return res, err
}

// verify re-reads the access set from the deployed container and holds
// it against the flattened source image.
func (im *deployImage) verify(dep *dockersim.Deployment) error {
	for _, p := range im.access {
		data, _, err := dep.Read(p)
		if err != nil {
			return fmt.Errorf("oracle: %s %s: %w", dep.Ref, p, err)
		}
		if md5.Sum(data) != im.sums[p] {
			return fmt.Errorf("oracle: %s %s: content differs from the source image", dep.Ref, p)
		}
	}
	return nil
}

func (s *deployScenario) check(ctr counters) error {
	if !s.warm {
		return nil
	}
	if n := ctr.server.Counter("gear.download.requests"); n != 0 {
		return fmt.Errorf("deploy_warm made %d Gear download requests; the L1 cache must serve every read", n)
	}
	return nil
}

func (s *deployScenario) probeInput() (*probeInput, error) {
	im := &s.images[len(s.images)-1]
	return newProbeInput(s.rig, im.name, im.tag, im.access)
}

// ---- read_chunked / read_range ----

type readOp struct {
	path   string
	file   uint64 // content generator id
	fp     hashing.Fingerprint
	off, n int64
}

type readScenario struct {
	base
	chunked bool
	gen     contentGen
	store   *store.Store
	views   [numClients]*viewer.Viewer
	sched   []readOp
	// chunkEnds[i] is the file offset one past chunk i of the weights;
	// chunkOf maps a chunk fingerprint to its position.
	chunkEnds []int64
	chunkOf   map[string]int
	access    []string
}

func setupRead(cfg config, tr *tracer, chunked bool) (scenario, error) {
	s := &readScenario{
		base: base{tele: telemetry.NewRegistry()}, chunked: chunked,
		gen: contentGen{seed: contentSeed}, chunkOf: make(map[string]int),
	}
	r, err := newRig(tr, &s.wire)
	if err != nil {
		return nil, err
	}
	s.rig = r
	if err := s.setup(cfg); err != nil {
		r.close()
		return nil, err
	}
	return s, nil
}

func (s *readScenario) setup(cfg config) error {
	sz := cfg.sizes
	sizeRNG := rand.New(rand.NewSource(contentSeed))
	rng := rand.New(rand.NewSource(cfg.seed)) // the schedule

	// One AI-style image: a big weights file and some shared libraries.
	tree := vfs.New()
	if err := tree.MkdirAll("/srv/model", 0o755); err != nil {
		return err
	}
	if err := tree.MkdirAll("/usr/lib", 0o755); err != nil {
		return err
	}
	weights := make([]byte, sz.weightsBytes)
	s.gen.fill(weights, 0, 0)
	if err := tree.WriteFile(weightsPath, weights, 0o644); err != nil {
		return err
	}
	type lib struct {
		path string
		size int64
		file uint64
	}
	libs := make([]lib, sz.libs)
	for i := range libs {
		libs[i] = lib{fmt.Sprintf("/usr/lib/lib%02d.so", i), sz.libMinBytes + sizeRNG.Int63n(sz.libMinBytes), uint64(i + 1)}
		data := make([]byte, libs[i].size)
		s.gen.fill(data, libs[i].file, 0)
		if err := tree.WriteFile(libs[i].path, data, 0o755); err != nil {
			return err
		}
		s.access = append(s.access, libs[i].path)
	}
	img, err := imagefmt.SingleLayerImage(modelRef, modelTag, tree, imagefmt.Config{})
	if err != nil {
		return err
	}
	conv, err := convert.New(convert.Options{Chunking: index.CDCChunks(chunkAvgBytes)})
	if err != nil {
		return err
	}
	res, err := conv.Convert(img)
	if err != nil {
		return err
	}
	if _, _, err := convert.Publish(res, s.docker, s.pool); err != nil {
		return err
	}
	we := res.Index.Lookup(weightsPath)
	if we == nil || len(we.Chunks) == 0 {
		return errors.New("weights file was not chunked")
	}
	var end int64
	for i, ch := range we.Chunks {
		end += ch.Size
		s.chunkEnds = append(s.chunkEnds, end)
		s.chunkOf[string(ch.Fingerprint)] = i
	}

	// The client side: one store both clients share, one container each,
	// the index pulled over HTTP like any deploy would.
	docker, gear := s.rig.clients(s.resolve)
	opts := store.Options{Remote: gear, Telemetry: s.tele}
	if s.chunked {
		opts.CacheCapacity = sz.cacheBytes
		opts.ChunkWindowBytes = chunkWindowBytes
		opts.ChunkReadahead = chunkReadahead
	} else {
		opts.RangeReads = true
	}
	if s.store, err = store.New(opts); err != nil {
		return err
	}
	ixImg, err := registry.Pull(docker, modelRef, modelTag)
	if err != nil {
		return err
	}
	ix, err := index.FromImage(ixImg)
	if err != nil {
		return err
	}
	if err := s.store.AddIndex(ix); err != nil {
		return err
	}
	for c := range s.views {
		if s.views[c], err = s.store.CreateContainer(fmt.Sprintf("c%d", c), ix.Reference()); err != nil {
			return err
		}
	}

	// The schedule. Chunked: each client walks the weights, half its
	// reads continuing where its previous one ended and half jumping.
	// Range: a loader reading 16 KiB pages of random libraries.
	var next [numClients]int64
	for i := 0; i < sz.scheduleOps; i++ {
		if !s.chunked {
			l := libs[rng.Intn(len(libs))]
			s.sched = append(s.sched, readOp{
				path: l.path, file: l.file, fp: res.Index.Lookup(l.path).Fingerprint,
				off: rng.Int63n(l.size - rangeReadBytes), n: rangeReadBytes,
			})
			continue
		}
		c := i % numClients
		off := next[c]
		if rng.Intn(2) == 0 || off+chunkedReadBytes > sz.weightsBytes {
			off = rng.Int63n(sz.weightsBytes - chunkedReadBytes)
		}
		next[c] = off + chunkedReadBytes
		s.sched = append(s.sched, readOp{path: weightsPath, fp: we.Fingerprint, off: off, n: chunkedReadBytes})
	}
	return nil
}

// resolve finds the op a call on the shared store's stack belongs to:
// the client whose current read covers the chunk (readahead included),
// or is reading exactly that range. A fetch no current read wants — a
// readahead whose read has returned — belongs to no op.
func (s *readScenario) resolve(key string) *opCtx {
	idx, isChunk := s.chunkOf[key]
	for c := range s.cur {
		x := s.cur[c].Load()
		if x == nil {
			continue
		}
		if isChunk && idx >= x.chunkLo && idx < x.chunkHi {
			return x
		}
		if !isChunk && x.object == key {
			return x
		}
	}
	return nil
}

func (s *readScenario) ops() int { return len(s.sched) }

func (s *readScenario) do(x *opCtx, i int) (opResult, error) {
	op := &s.sched[i]
	if s.chunked {
		x.chunkLo = s.chunkAt(op.off)
		x.chunkHi = s.chunkAt(op.off+op.n-1) + 1 + chunkReadahead
	} else {
		x.object = rangeKey(op.fp, op.off, op.n)
	}
	s.cur[x.client].Store(x)
	defer s.cur[x.client].Store(nil)
	sp := x.begin(layerViewer, "read_at")
	data, err := s.views[x.client].ReadAt(op.path, op.off, op.n)
	sp.end(err)
	if err != nil {
		return opResult{}, err
	}
	if x.verify {
		want := make([]byte, op.n)
		s.gen.fill(want, op.file, op.off)
		if !bytes.Equal(data, want) {
			return opResult{}, fmt.Errorf("oracle: %s[%d:+%d]: bytes differ from the generated content", op.path, op.off, op.n)
		}
	}
	return opResult{payload: int64(len(data))}, nil
}

// chunkAt returns the index of the weights chunk holding offset off.
func (s *readScenario) chunkAt(off int64) int {
	lo, hi := 0, len(s.chunkEnds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.chunkEnds[mid] > off {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (s *readScenario) check(ctr counters) error {
	if s.chunked {
		if peak := ctr.client.Gauge("store.chunk.window.peak"); peak > chunkWindowBytes {
			return fmt.Errorf("chunk window peaked at %d bytes, over its %d byte budget", peak, chunkWindowBytes)
		}
		return nil
	}
	if n := ctr.client.Gauge("cache.objects"); n != 0 {
		return fmt.Errorf("read_range put %d objects in the cache; range reads must bypass it", n)
	}
	return nil
}

func (s *readScenario) quiesce() { s.store.WaitReadahead() }

func (s *readScenario) close() {
	s.store.WaitReadahead()
	s.rig.close()
}

func (s *readScenario) probeInput() (*probeInput, error) {
	return newProbeInput(s.rig, modelRef, modelTag, s.access)
}

// ---- push ----

type pushScenario struct {
	base
	tr     *tracer
	images []*imagefmt.Image // schedule order: client c owns images c, c+2, …
	// The deterministic outcome of pushing the whole schedule into empty
	// registries: the pool's unique object set and every fingerprint.
	wantObjects int
	wantBytes   int64
	wantFPs     []hashing.Fingerprint

	conv      [numClients]*convert.Converter
	pusher    [numClients]*convert.Pusher
	dockerCli [numClients]registry.Store
	used      bool               // the current registry pair has taken a round
	retired   telemetry.Snapshot // pool counters of the rounds already closed
}

func setupPush(cfg config, tr *tracer) (scenario, error) {
	s := &pushScenario{base: base{tele: telemetry.NewRegistry()}, tr: tr}
	co, err := corpus.New(corpus.Options{
		Seed: contentSeed, Scale: cfg.sizes.corpusScale,
		SeriesFilter: series, MaxVersions: cfg.sizes.pushVersions,
	})
	if err != nil {
		return nil, err
	}
	// Series k belongs to client k%2, whatever the seed, so the split of
	// work between the clients is the same in every run. The seed sets
	// the order in which each client takes its series; a series is
	// pushed version by version, as a CI job would. Client c owns
	// schedule slots c, c+2, …
	rng := rand.New(rand.NewSource(cfg.seed))
	perClient := len(series) / numClients
	var turn [numClients][]int // turn[c][k]: when client c pushes its k-th series
	for c := range turn {
		turn[c] = rng.Perm(perClient)
	}
	perSeries := cfg.sizes.pushVersions
	s.images = make([]*imagefmt.Image, len(series)*perSeries)
	err = inParallel(len(s.images), func(j int) error {
		k, v := j/perSeries, j%perSeries
		img, err := co.Image(series[k], v)
		c := k % numClients
		slot := (turn[c][k/numClients]*perSeries+v)*numClients + c
		s.images[slot] = img
		return err
	})
	if err != nil {
		return nil, err
	}
	// A reference conversion fixes what every round must leave behind.
	conv, err := convert.New(convert.Options{})
	if err != nil {
		return nil, err
	}
	results := make([]*convert.Result, len(s.images))
	err = inParallel(len(s.images), func(i int) error {
		var err error
		results[i], err = conv.Convert(s.images[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[hashing.Fingerprint]bool)
	for _, res := range results {
		for fp, data := range res.Files {
			if !seen[fp] {
				seen[fp] = true
				s.wantObjects++
				s.wantBytes += int64(len(data))
				s.wantFPs = append(s.wantFPs, fp)
			}
		}
	}
	if err := s.beginRound(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *pushScenario) ops() int          { return len(s.images) }
func (s *pushScenario) wholeRounds() bool { return true }

// beginRound stands up a fresh, empty registry pair and fresh client
// state, so every round pushes into the same starting condition.
func (s *pushScenario) beginRound() error {
	if s.rig != nil {
		if !s.used {
			return nil
		}
		s.retire()
	}
	s.used = false
	r, err := newRig(s.tr, &s.wire)
	if err != nil {
		return err
	}
	s.rig = r
	for c := 0; c < numClients; c++ {
		docker, gear := r.clients(s.ownOp(c))
		s.dockerCli[c] = docker
		if s.conv[c], err = convert.New(convert.Options{}); err != nil {
			return err
		}
		if s.pusher[c], err = convert.NewPusher(convert.PushOptions{Gear: gear, PushWorkers: 2}); err != nil {
			return err
		}
	}
	return nil
}

// retire folds the closing round's pool counters into the running totals
// and shuts its servers down.
func (s *pushScenario) retire() {
	s.retired = addCounters(s.retired, s.pool.StatsSnapshot())
	s.rig.close()
}

func addCounters(a, b telemetry.Snapshot) telemetry.Snapshot {
	out := telemetry.Snapshot{Counters: make(map[string]int64, len(b.Counters))}
	for k, v := range a.Counters {
		out.Counters[k] = v
	}
	for k, v := range b.Counters {
		out.Counters[k] += v
	}
	return out
}

func (s *pushScenario) serverCounters() telemetry.Snapshot {
	return addCounters(s.retired, s.pool.StatsSnapshot())
}

func (s *pushScenario) do(x *opCtx, i int) (opResult, error) {
	s.cur[x.client].Store(x)
	defer s.cur[x.client].Store(nil)
	sp := x.begin(layerConvert, "convert")
	res, err := s.conv[x.client].Convert(s.images[i])
	sp.end(err)
	if err != nil {
		return opResult{}, err
	}
	sp = x.begin(layerPush, "push")
	ixBytes, win, err := s.pusher[x.client].Push(res, s.dockerCli[x.client])
	sp.end(err)
	return opResult{wire: ixBytes + win.Bytes(), payload: ixBytes + win.Bytes(), push: win}, err
}

// endRound is the push oracle: the round must leave exactly the
// schedule's unique object set in the pool, every fingerprint must
// answer Query, and every image must have its manifest.
func (s *pushScenario) endRound() error {
	s.used = true
	st := s.pool.Stats()
	if st.Objects != s.wantObjects || st.LogicalBytes != s.wantBytes {
		return fmt.Errorf("oracle: pool holds %d objects / %d bytes after the round, want %d / %d",
			st.Objects, st.LogicalBytes, s.wantObjects, s.wantBytes)
	}
	present, err := s.pool.QueryBatch(s.wantFPs)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for i, ok := range present {
		if !ok {
			return fmt.Errorf("oracle: fingerprint %s does not answer Query after the round", s.wantFPs[i])
		}
	}
	if n := s.docker.Stats().Manifests; n != len(s.images) {
		return fmt.Errorf("oracle: docker registry holds %d manifests after the round, want %d", n, len(s.images))
	}
	return nil
}

func (s *pushScenario) probeInput() (*probeInput, error) {
	m := s.images[len(s.images)-1].Manifest
	return newProbeInput(s.rig, m.Name, m.Tag, nil)
}

func (s *pushScenario) close() { s.rig.close() }
