// Package store implements Gear's client-side three-level storage
// structure (§III-D1 of the paper) and the driver logic that deploys
// Gear containers over it:
//
//	level 1 — a shared, content-addressed cache of Gear files,
//	          deduplicated by fingerprint and shared by all images;
//	level 2 — per-image "index" directories (placeholder trees) that
//	          containers mount read-only;
//	level 3 — per-container "diff" directories holding modifications.
//
// The three levels decouple lifecycles: removing a container deletes
// only its diff; removing an image deletes only its index, leaving its
// Gear files shared in the cache.
//
// The store is also the viewer's Resolver (the paper's user-mode
// helper): a placeholder fault looks in the cache first, downloads from
// the Gear Registry on a miss, stores the file at level 1, and hard
// links it over the placeholder at level 2 so every later access — from
// any container of that image — is local.
package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// Errors returned by store operations.
var (
	ErrNoIndex       = errors.New("image index not present")
	ErrIndexExists   = errors.New("image index already present")
	ErrNoContainer   = errors.New("container not found")
	ErrContainerBusy = errors.New("container id already in use")
)

// Options configures a Store.
type Options struct {
	// CacheCapacity bounds the level-1 cache in bytes (0 = unlimited).
	CacheCapacity int64
	// CachePolicy selects the replacement algorithm (default LRU).
	CachePolicy cache.Policy
	// Remote is the Gear Registry files are fetched from on cache misses.
	// A nil Remote makes misses fail, which models a disconnected client.
	Remote gearregistry.Store
	// OnTransfer, if set, observes everything the store moves over the
	// network, once per transfer: a fault, the chunk faults of one span
	// read, a readahead, a range read, or a FetchAll window (see
	// Transfer). The deployment simulator prices netsim links here.
	OnTransfer func(Transfer)
	// FetchWorkers bounds the concurrency of FetchAll (and Prefetch,
	// which uses it). 0 selects DefaultFetchWorkers. Lazy single-file
	// faults (Resolve) are unaffected.
	FetchWorkers int
	// Peers, if set, is consulted on every miss before the registry:
	// a cluster neighbour that already holds the file serves it over
	// the cheap LAN instead of the registry's WAN. Peer payloads are
	// fingerprint-verified exactly like registry downloads; a peer
	// that serves corrupt bytes is simply ignored and the fetch falls
	// back to the registry.
	Peers PeerSource
	// Profiles, if set, enables profile-guided startup prefetch: the
	// store records each image's first-access order (fingerprint, size,
	// sequence) as containers fault, SaveProfile persists it here, and
	// PrefetchProfile replays it on the next deploy. Nil disables both
	// recording and replay — the store behaves exactly as before.
	Profiles *prefetch.Library
	// ChunkWindowBytes bounds the bytes of demand and readahead transfers
	// in flight — whole files, chunks and ranges alike: the client's
	// transient-memory budget, however large the file. A transfer larger
	// than the budget is admitted alone. Demand preempts readahead
	// admission. 0 selects DefaultChunkWindowBytes.
	ChunkWindowBytes int64
	// ChunkReadahead is how many chunks past a demanded range the store
	// opportunistically fetches in the background with leftover budget.
	// 0 disables readahead.
	ChunkReadahead int
	// RangeReads enables the partial-read fast path for non-chunked
	// files: a ranged fault asks the registry's range verb for exactly
	// the requested bytes instead of materializing the file. Off (the
	// default), a ranged read of a non-chunked file materializes it and
	// slices.
	RangeReads bool
	// Telemetry, if set, is the registry the store (and its level-1
	// cache) publishes store.*/cache.* metrics into — typically the
	// per-daemon registry. Nil gets private, live handles, so the
	// legacy Stats views work either way.
	Telemetry *telemetry.Registry
	// Trace, if set, receives a structured span per fetch window and
	// per blocking fault the store leads. Nil disables tracing.
	Trace *telemetry.TraceRing
}

// PeerSource obtains Gear files from cluster peers. ok=false means no
// peer could serve the file and the store should use the registry.
// peer.Exchange is the production implementation.
type PeerSource interface {
	FetchPeer(fp hashing.Fingerprint) (data []byte, wireBytes int64, ok bool)
}

// DefaultFetchWorkers is the FetchAll concurrency used when Options
// leaves FetchWorkers zero.
const DefaultFetchWorkers = 8

// Store is a client's Gear storage. It is safe for concurrent use.
type Store struct {
	opts  Options
	cache *cache.Cache

	mu         sync.Mutex
	indexes    map[string]*imageState
	containers map[string]*containerState

	// flightMu guards flights, the singleflight table of in-progress
	// downloads. It is always taken without mu held.
	flightMu sync.Mutex
	flights  map[hashing.Fingerprint]*flight

	// gate is the admission gate every transfer enters: one byte budget,
	// demand ahead of readahead and profile replay. bg tracks the
	// background readahead fetches.
	gate *gate
	bg   sync.WaitGroup

	// recMu guards recorders, the per-image startup-profile recorders
	// (populated only when opts.Profiles is set).
	recMu     sync.Mutex
	recorders map[string]*prefetch.Recorder

	// prefMu guards prefetched, the set of fingerprints the replay
	// admitted that no demand read has consumed yet. The
	// store.prefetch.wasted gauge mirrors len(prefetched) and is only
	// mutated under prefMu.
	prefMu     sync.Mutex
	prefetched map[hashing.Fingerprint]bool

	// m holds the store.* telemetry handles. They are the counters'
	// only storage — the legacy Stats struct is a view over them.
	m storeMetrics
}

// storeMetrics are the store's telemetry handles, resolved once at New
// so hot paths pay a single atomic op per publish.
type storeMetrics struct {
	remoteObjects, remoteBytes *telemetry.Counter
	peerObjects, peerBytes     *telemetry.Counter

	demandMisses *telemetry.Counter
	stallBytes   *telemetry.Counter
	stallNanos   *telemetry.Counter
	stall        *telemetry.Histogram

	prefetchObjects, prefetchBytes *telemetry.Counter
	prefetchHits, prefetchErrors   *telemetry.Counter
	prefetchWasted                 *telemetry.Gauge

	chunkDemand, chunkReadahead *telemetry.Counter
	rangeReads                  *telemetry.Counter
	windowPeak                  *telemetry.Gauge

	indexes, containers *telemetry.Gauge
}

func newStoreMetrics(reg *telemetry.Registry) storeMetrics {
	return storeMetrics{
		remoteObjects:   reg.Counter("store.remote.objects"),
		remoteBytes:     reg.Counter("store.remote.bytes"),
		peerObjects:     reg.Counter("store.peer.objects"),
		peerBytes:       reg.Counter("store.peer.bytes"),
		demandMisses:    reg.Counter("store.demand.misses"),
		stallBytes:      reg.Counter("store.demand.stall.bytes"),
		stallNanos:      reg.Counter("store.demand.stall.ns"),
		stall:           reg.Histogram("store.demand.stall", telemetry.DefaultLatencyBounds),
		prefetchObjects: reg.Counter("store.prefetch.objects"),
		prefetchBytes:   reg.Counter("store.prefetch.bytes"),
		prefetchHits:    reg.Counter("store.prefetch.hits"),
		prefetchErrors:  reg.Counter("store.prefetch.errors"),
		prefetchWasted:  reg.Gauge("store.prefetch.wasted"),
		chunkDemand:     reg.Counter("store.chunk.demand"),
		chunkReadahead:  reg.Counter("store.chunk.readahead"),
		rangeReads:      reg.Counter("store.range.reads"),
		windowPeak:      reg.Gauge("store.chunk.window.peak"),
		indexes:         reg.Gauge("store.indexes"),
		containers:      reg.Gauge("store.containers"),
	}
}

// imageState is an installed image: its mounted index — the shared
// placeholder tree (level 2) and the chunk tables — and how many
// containers run on that tree. An image installed from its blob holds no
// Entry tree; Index, Prefetch and Commit, which need one because the tree
// forgets a file's fingerprint once the file is relinked, get it from
// Mounted.Index.
type imageState struct {
	*index.Mounted
	// containers and removed are guarded by Store.mu. The tree's hard
	// links into the cache are released when the image has been removed
	// and its last container is gone, whichever comes last.
	containers int
	removed    bool
}

// containerState is a running container. image is the image it was
// created on: the only way from a container to its tree and its index,
// since the reference it was created under may name another image by now.
type containerState struct {
	image *imageState
	view  *viewer.Viewer
}

// imageFaults is the viewer.Resolver of the containers of one installed
// image: their faults are resolved against the tree they mount, whatever
// the reference they were created under has come to name since.
type imageFaults struct {
	s  *Store
	st *imageState
}

func (f imageFaults) Resolve(imageRef, path string, fp hashing.Fingerprint, size int64) (*vfs.Content, error) {
	return f.s.resolve(f.st, imageRef, path, fp, size, true)
}

func (f imageFaults) ResolveRange(imageRef, path string, fp hashing.Fingerprint, size, off, n int64) ([]byte, error) {
	return f.s.resolveRange(f.st, imageRef, path, fp, size, off, n)
}

var _ viewer.Resolver = (*Store)(nil)

// New returns an empty Store.
func New(opts Options) (*Store, error) {
	if opts.CachePolicy == 0 {
		opts.CachePolicy = cache.LRU
	}
	if opts.FetchWorkers <= 0 {
		opts.FetchWorkers = DefaultFetchWorkers
	}
	if opts.ChunkWindowBytes <= 0 {
		opts.ChunkWindowBytes = DefaultChunkWindowBytes
	}
	c, err := cache.NewTelemetered(opts.CacheCapacity, opts.CachePolicy, opts.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	m := newStoreMetrics(opts.Telemetry)
	return &Store{
		opts:       opts,
		cache:      c,
		indexes:    make(map[string]*imageState),
		containers: make(map[string]*containerState),
		flights:    make(map[hashing.Fingerprint]*flight),
		gate:       newGate(opts.ChunkWindowBytes, m.windowPeak),
		recorders:  make(map[string]*prefetch.Recorder),
		prefetched: make(map[hashing.Fingerprint]bool),
		m:          m,
	}, nil
}

// AddIndex installs an image's Gear index at level 2. This is the only
// prerequisite for launching containers of that image.
func (s *Store) AddIndex(ix *index.Index) error {
	m, err := ix.Mount() // validates ix
	if err != nil {
		return fmt.Errorf("store: add index: %w", err)
	}
	return s.install(m)
}

// InstallImage is AddIndex for an index that arrives as its single-layer
// image, as every pulled one does: the blob is decoded straight into the
// mounted tree, and no index.Index is built unless something asks for it.
func (s *Store) InstallImage(img *imagefmt.Image) error {
	m, err := index.MountImage(img)
	if err != nil {
		return fmt.Errorf("store: install image: %w", err)
	}
	return s.install(m)
}

func (s *Store) install(m *index.Mounted) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref := m.Reference()
	if _, ok := s.indexes[ref]; ok {
		return fmt.Errorf("store: %s: %w", ref, ErrIndexExists)
	}
	s.indexes[ref] = &imageState{Mounted: m}
	s.m.indexes.Add(1)
	return nil
}

// HasIndex reports whether the image's index is installed.
func (s *Store) HasIndex(ref string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.indexes[ref]
	return ok
}

// Index returns the installed index for ref.
func (s *Store) Index(ref string) (*index.Index, error) {
	st, err := s.image(ref)
	if err != nil {
		return nil, err
	}
	return st.Index()
}

// image returns the installed image ref.
func (s *Store) image(ref string) (*imageState, error) {
	if st := s.installed(ref); st != nil {
		return st, nil
	}
	return nil, fmt.Errorf("store: %s: %w", ref, ErrNoIndex)
}

// installed returns the image installed as ref, or nil.
func (s *Store) installed(ref string) *imageState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.indexes[ref]
}

// RemoveIndex deletes an image's level-2 state. Its Gear files remain in
// the level-1 cache and stay shareable by other images, but — per
// §III-D1, "files that are not linked to Gear indexes are candidates for
// replacement" — their hard links from this index are released, so the
// cache may now evict them under pressure. If containers of the image
// are still running, the release waits for the last of them to be
// removed: the shared index tree is their root filesystem, exactly as an
// unlinked-but-open file keeps working.
func (s *Store) RemoveIndex(ref string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.indexes[ref]
	if !ok {
		return fmt.Errorf("store: %s: %w", ref, ErrNoIndex)
	}
	delete(s.indexes, ref)
	s.m.indexes.Add(-1)
	st.removed = true
	return st.release()
}

// chunksOf returns the chunk list of the file fp of the image, nil for a
// file that is not chunked — as every file is when there is no image.
func (st *imageState) chunksOf(fp hashing.Fingerprint) []index.Chunk {
	if st == nil {
		return nil
	}
	return st.Chunks[fp]
}

// release drops the tree's hard links into the cache once nothing can
// reach the tree any more. The caller holds Store.mu.
func (st *imageState) release() error {
	if !st.removed || st.containers > 0 {
		return nil
	}
	return st.Tree.RemoveAll("/")
}

// CreateContainer launches a container from an installed index and
// returns its viewer. Only the tiny index must be local; file content
// arrives on demand.
func (s *Store) CreateContainer(id, imageRef string) (*viewer.Viewer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.containers[id]; ok {
		return nil, fmt.Errorf("store: %s: %w", id, ErrContainerBusy)
	}
	st, ok := s.indexes[imageRef]
	if !ok {
		return nil, fmt.Errorf("store: %s: %w", imageRef, ErrNoIndex)
	}
	v := viewer.New(imageRef, st.Tree, imageFaults{s, st})
	s.containers[id] = &containerState{image: st, view: v}
	st.containers++
	s.m.containers.Add(1)
	return v, nil
}

// Container returns a running container's viewer.
func (s *Store) Container(id string) (*viewer.Viewer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[id]
	if !ok {
		return nil, fmt.Errorf("store: %s: %w", id, ErrNoContainer)
	}
	return c.view, nil
}

// RemoveContainer destroys a container: only its level-3 diff goes away;
// the image index and cached files survive. The last container of an
// image that has been removed meanwhile takes the image's tree with it.
func (s *Store) RemoveContainer(id string) error {
	s.mu.Lock()
	c, ok := s.containers[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("store: %s: %w", id, ErrNoContainer)
	}
	delete(s.containers, id)
	s.m.containers.Add(-1)
	c.image.containers--
	err := c.image.release()
	// Close outside mu: it takes the viewer's own lock, and the two are
	// never nested (a faulting read calls back into the store, which
	// takes mu, from the viewer's side).
	s.mu.Unlock()
	c.view.Close()
	return err
}

// Resolve implements viewer.Resolver: cache lookup, then remote
// download, then hard link over the placeholder in the shared index tree
// of the image installed as imageRef now. (A container's own faults go to
// the image it was created on: see imageFaults.) Faults resolved here are
// first-class accesses and feed the image's startup profile when a
// profile library is configured.
func (s *Store) Resolve(imageRef, path string, fp hashing.Fingerprint, size int64) (*vfs.Content, error) {
	return s.resolve(s.installed(imageRef), imageRef, path, fp, size, true)
}

// resolve is Resolve in the image st, with recording controllable: the
// eager Prefetch walk passes record=false so a whole-image sweep does not
// overwrite the access order real container starts exhibit. With no image
// (st is nil: nothing is installed as imageRef) the fetch runs against
// the cache and the registry, and links nothing.
func (s *Store) resolve(st *imageState, imageRef, path string, fp hashing.Fingerprint, size int64, record bool) (*vfs.Content, error) {
	if record {
		s.record(imageRef, fp, size)
	}
	// A concurrent fault may have materialized the node already. The
	// shared tree is internally locked, so mu is not needed here.
	if st != nil {
		if n := st.Tree.Lookup(path); n != nil && n.Type() == vfs.TypeRegular {
			if !index.IsPlaceholder(n.Content().Data()) {
				return n.Content(), nil
			}
		}
	}

	content, err := s.fetch(fp, size, st.chunksOf(fp))
	if err != nil {
		return nil, err
	}
	if st != nil {
		// Hard link over the placeholder, if the file is still in the
		// tree: the image may have been removed, and its last container
		// with it, during the fetch.
		st.Tree.Relink(path, content)
	}
	return content, nil
}

// fetch obtains the whole Gear file for fp: level-1 cache first, then
// one fault — or, for a chunked file, its chunks faulted through the
// byte budget and assembled.
func (s *Store) fetch(fp hashing.Fingerprint, size int64, chunks []index.Chunk) (*vfs.Content, error) {
	if c, ok := s.cache.Get(fp); ok {
		s.noteDemandHit(fp)
		return c, nil
	}
	if len(chunks) == 0 {
		c, t, err := s.fetchOne(fp, size)
		s.account(t)
		return c, err
	}
	contents, err := s.fetchChunks(chunks)
	if err != nil {
		return nil, err
	}
	assembled := make([]byte, 0, size)
	for _, c := range contents {
		assembled = append(assembled, c.Data()...)
	}
	content, err := s.cache.Put(fp, assembled)
	if err != nil {
		return nil, fmt.Errorf("store: cache %s: %w", fp, err)
	}
	return content, nil
}

// ErrBadRange reports a ranged read of a negative offset or no bytes.
var ErrBadRange = errors.New("invalid byte range")

// ResolveRange implements viewer.Resolver: it serves [off, off+n) of the
// file behind fp, and decides what that costs. A chunked file fetches
// only the chunks that overlap the range — the paper's future-work "read
// big files on demand in chunks" (§VII): they fault concurrently through
// the gate (at most ChunkWindowBytes in flight, however wide the read),
// and leftover budget reads ahead along the file per ChunkReadahead. A
// non-chunked file uses the registry's range verb when RangeReads is
// enabled, and is otherwise materialized, exactly as by Resolve, and
// sliced. Partial reads do not link anything into the index tree (the
// file is not complete), but every fetched chunk lands in the level-1
// cache for reuse. A failed ranged read is an error, never a quiet fetch
// of the whole file.
func (s *Store) ResolveRange(imageRef, path string, fp hashing.Fingerprint, size, off, n int64) ([]byte, error) {
	return s.resolveRange(s.installed(imageRef), imageRef, path, fp, size, off, n)
}

// resolveRange is ResolveRange in the image st (see resolve).
func (s *Store) resolveRange(st *imageState, imageRef, path string, fp hashing.Fingerprint, size, off, n int64) ([]byte, error) {
	if n <= 0 || off < 0 {
		return nil, fmt.Errorf("store: range [%d,+%d): %w", off, n, ErrBadRange)
	}
	chunks := st.chunksOf(fp)
	if len(chunks) == 0 {
		if data, ok, err := s.rangeRead(fp, off, n); ok || err != nil {
			return data, err
		}
		c, err := s.resolve(st, imageRef, path, fp, size, true)
		if err != nil {
			return nil, err
		}
		return sliceRange(c.Data(), off, n), nil
	}
	// Ranged reads are first-class accesses too; the profile records the
	// file, and its replay pulls the chunks.
	s.record(imageRef, fp, size)
	// Whole file already assembled? Serve from cache.
	if c, ok := s.cache.Get(fp); ok {
		s.noteDemandHit(fp)
		return sliceRange(c.Data(), off, n), nil
	}
	lo, hi, loOff := chunkSpan(chunks, off, n)
	if lo == hi {
		return nil, nil // range starts past the end of the file
	}
	contents, err := s.fetchChunks(chunks[lo:hi])
	if err != nil {
		return nil, err
	}
	if ra := s.opts.ChunkReadahead; ra > 0 && hi < len(chunks) {
		s.readahead(chunks[hi:min(hi+ra, len(chunks))])
	}
	out := make([]byte, 0, n)
	pos := loOff
	for _, c := range contents {
		data := c.Data()
		chunkEnd := pos + int64(len(data))
		a := int64(0)
		if off > pos {
			a = off - pos
		}
		b := int64(len(data))
		if off+n < chunkEnd {
			b = off + n - pos
		}
		out = append(out, data[a:b]...)
		pos = chunkEnd
	}
	return out, nil
}

func sliceRange(data []byte, off, n int64) []byte {
	if off >= int64(len(data)) {
		return nil
	}
	end := off + n
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	return data[off:end]
}

// Prefetch materializes every file of an installed image (a full
// download, used to pre-warm caches or to compare against Docker's
// eager pull). The downloads run through FetchAll, so they use up to
// FetchWorkers concurrent (batched where supported) transfers.
func (s *Store) Prefetch(ref string) error {
	st, err := s.image(ref)
	if err != nil {
		return err
	}
	ix, err := st.Index()
	if err != nil {
		return fmt.Errorf("store: prefetch %s: %w", ref, err)
	}
	// Gather the raw objects to pull: chunk fingerprints for chunked
	// files (the transfer unit), file fingerprints otherwise.
	var fps []hashing.Fingerprint
	walkEntries(ix.Root, "/", func(_ string, e *index.Entry) {
		if e.Type != vfs.TypeRegular || e.Fingerprint == "" {
			return
		}
		if chunks := st.Chunks[e.Fingerprint]; len(chunks) > 0 {
			for _, ch := range chunks {
				fps = append(fps, ch.Fingerprint)
			}
			return
		}
		fps = append(fps, e.Fingerprint)
	})
	if _, err := s.FetchAll(fps); err != nil {
		return err
	}
	// Link everything into the level-2 tree; all content is local now,
	// so these resolves assemble and hard-link without network traffic.
	walkEntries(ix.Root, "/", func(p string, e *index.Entry) {
		if err != nil || e.Type != vfs.TypeRegular {
			return
		}
		// record=false: an eager whole-image walk is not a startup access
		// pattern and must not pollute the image's profile.
		if _, rerr := s.resolve(st, ref, p, e.Fingerprint, e.Size, false); rerr != nil {
			err = rerr
		}
	})
	return err
}

// Fingerprints translates index-tree paths of ref into the raw Gear
// objects a fetch must pull: paths still holding placeholders map to
// their file fingerprint, or to their chunk fingerprints for chunked
// files. Already-materialized, missing, and non-regular paths are
// skipped. The result feeds FetchAll to pre-fault a known access set.
func (s *Store) Fingerprints(ref string, paths []string) ([]hashing.Fingerprint, error) {
	st, err := s.image(ref)
	if err != nil {
		return nil, err
	}
	var fps []hashing.Fingerprint
	for _, p := range paths {
		n := st.Tree.Lookup(p)
		if n == nil || n.Type() != vfs.TypeRegular {
			continue
		}
		fp, _, err := index.ParsePlaceholder(n.Content().Data())
		if err != nil {
			continue // already materialized
		}
		if chunks := st.Chunks[fp]; len(chunks) > 0 {
			for _, ch := range chunks {
				fps = append(fps, ch.Fingerprint)
			}
			continue
		}
		fps = append(fps, fp)
	}
	return fps, nil
}

// walkEntries calls fn for e, which is at the clean path p, and for
// every entry below it.
func walkEntries(e *index.Entry, p string, fn func(p string, e *index.Entry)) {
	fn(p, e)
	if p == "/" {
		p = ""
	}
	for _, c := range e.Children {
		walkEntries(c, p+"/"+c.Name, fn)
	}
}

// Commit turns a container into a new Gear image (§III-D2): the diff's
// regular files become new Gear files (added to the level-1 cache and
// returned for upload), and the diff's metadata merges with the index of
// the image the container was created on — removed since or not — into a
// new index under newName:newTag.
func (s *Store) Commit(containerID, newName, newTag string) (*index.Index, map[hashing.Fingerprint][]byte, error) {
	s.mu.Lock()
	c, ok := s.containers[containerID]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("store: %s: %w", containerID, ErrNoContainer)
	}
	ix, err := c.image.Index()
	if err != nil {
		return nil, nil, fmt.Errorf("store: commit %s: %w", containerID, err)
	}
	diff := c.view.DiffTree()
	newIx, newFiles, err := index.ApplyDiff(ix, newName, newTag, diff, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("store: commit %s: %w", containerID, err)
	}
	for fp, data := range newFiles {
		if _, err := s.cache.Put(fp, data); err != nil {
			return nil, nil, fmt.Errorf("store: commit cache %s: %w", fp, err)
		}
	}
	return newIx, newFiles, nil
}

// CacheStats exposes level-1 cache effectiveness.
func (s *Store) CacheStats() cache.Stats { return s.cache.Stats() }

// Cache exposes the level-1 cache itself, so peer distribution can
// export it (peer.NewServer) and track its membership (cache.SetHooks).
func (s *Store) Cache() *cache.Cache { return s.cache }

// ClearCache empties level 1 (the paper's cold-cache runs).
func (s *Store) ClearCache() { s.cache.Clear() }

// Stats summarizes remote traffic attributable to this store. Remote*
// count registry (WAN) transfers; Peer* count cluster-peer (LAN)
// transfers. Demand*/Stall* account foreground faults that had to wait
// for the network; Prefetch* account the profile replay and how much of
// it demand reads actually consumed.
//
// Stats is a view over the store.* telemetry metrics (Options.
// Telemetry): every field reads the same handle a shared registry
// snapshot reports, so the two always reconcile exactly.
type Stats struct {
	RemoteObjects int64 `json:"remoteObjects"`
	RemoteBytes   int64 `json:"remoteBytes"`
	PeerObjects   int64 `json:"peerObjects"`
	PeerBytes     int64 `json:"peerBytes"`
	Indexes       int   `json:"indexes"`
	Containers    int   `json:"containers"`

	// DemandMisses counts lazy faults that blocked on a transfer (led or
	// joined); StallBytes is the content volume those faults waited for,
	// and StallTime the cumulative wall-clock time demand reads spent
	// blocked in the fetch path.
	DemandMisses int64         `json:"demandMisses"`
	StallBytes   int64         `json:"stallBytes"`
	StallTime    time.Duration `json:"stallTime"`
	// PrefetchObjects/PrefetchBytes are the registry transfers performed
	// under the prefetch class. PrefetchHits counts demand reads served
	// from the cache because a replay put the object there first;
	// PrefetchWasted is the gauge of replayed objects no demand read has
	// consumed (yet).
	PrefetchObjects int64 `json:"prefetchObjects"`
	PrefetchBytes   int64 `json:"prefetchBytes"`
	PrefetchHits    int64 `json:"prefetchHits"`
	PrefetchWasted  int64 `json:"prefetchWasted"`
}

// Stats returns a snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		RemoteObjects:   s.m.remoteObjects.Value(),
		RemoteBytes:     s.m.remoteBytes.Value(),
		PeerObjects:     s.m.peerObjects.Value(),
		PeerBytes:       s.m.peerBytes.Value(),
		Indexes:         len(s.indexes),
		Containers:      len(s.containers),
		DemandMisses:    s.m.demandMisses.Value(),
		StallBytes:      s.m.stallBytes.Value(),
		StallTime:       time.Duration(s.m.stallNanos.Value()),
		PrefetchObjects: s.m.prefetchObjects.Value(),
		PrefetchBytes:   s.m.prefetchBytes.Value(),
		PrefetchHits:    s.m.prefetchHits.Value(),
		PrefetchWasted:  s.m.prefetchWasted.Value(),
	}
}
