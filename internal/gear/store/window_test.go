package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// chunkedFixture publishes one size-byte file chunked at chunkSize into
// a fresh registry and returns the index, registry, and file bytes.
func chunkedFixture(t testing.TB, size, chunkSize int64) (*index.Index, *gearregistry.Registry, []byte) {
	t.Helper()
	root := vfs.New()
	big := make([]byte, size)
	rand.New(rand.NewSource(41)).Read(big)
	if err := root.WriteFile("/model", big, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, pool, err := index.BuildPolicy("ai", "v1", imagefmt.Config{}, root, nil, index.FixedChunks(chunkSize))
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	return ix, reg, big
}

// slowRemote delays every download and tracks the peak number of
// concurrent ones — the observable the window budget must bound.
type slowRemote struct {
	gearregistry.Store
	delay time.Duration

	mu       sync.Mutex
	conc     int
	peakConc int
}

func (r *slowRemote) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	r.mu.Lock()
	r.conc++
	if r.conc > r.peakConc {
		r.peakConc = r.conc
	}
	r.mu.Unlock()
	time.Sleep(r.delay)
	defer func() {
		r.mu.Lock()
		r.conc--
		r.mu.Unlock()
	}()
	return r.Store.Download(fp)
}

// A wide ranged read faults its chunks concurrently, but never holds
// more than ChunkWindowBytes in flight.
func TestChunkWindowBoundsInflight(t *testing.T) {
	ix, reg, big := chunkedFixture(t, 65536, 4096) // 16 chunks
	slow := &slowRemote{Store: reg, delay: 10 * time.Millisecond}
	s := mustStore(t, Options{Remote: slow, ChunkWindowBytes: 8192})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadAt("/model", 0, 65536)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("windowed read: %d bytes, %v", len(got), err)
	}
	if peak := s.ChunkWindowPeak(); peak > 8192 {
		t.Errorf("window peak = %d bytes, budget 8192", peak)
	}
	if slow.peakConc > 2 {
		t.Errorf("concurrent downloads = %d, budget admits 2", slow.peakConc)
	}
	if slow.peakConc < 2 {
		t.Errorf("concurrent downloads = %d, want the window to overlap transfers", slow.peakConc)
	}
	if st := metrics(s); st.Counter("store.remote.objects") != 16 || st.Counter("store.remote.bytes") != 65536 {
		t.Errorf("remote = %d objects / %d bytes", st.Counter("store.remote.objects"), st.Counter("store.remote.bytes"))
	}
}

// A whole-file read of a chunked file faults its chunks through the
// same budget as a ranged read: transfers overlap, and never hold more
// than ChunkWindowBytes in flight.
func TestWholeFileReadOfChunkedFileIsWindowed(t *testing.T) {
	ix, reg, big := chunkedFixture(t, 65536, 4096) // 16 chunks
	slow := &slowRemote{Store: reg, delay: 10 * time.Millisecond}
	const budget = 4 * 4096
	s := mustStore(t, Options{Remote: slow, ChunkWindowBytes: budget})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadFile("/model")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("whole-file read: %d bytes, %v", len(got), err)
	}
	if slow.peakConc < 2 || slow.peakConc > budget/4096 {
		t.Errorf("concurrent downloads = %d, want 2..%d", slow.peakConc, budget/4096)
	}
	if peak := s.ChunkWindowPeak(); peak > budget {
		t.Errorf("window peak = %d bytes, budget %d", peak, budget)
	}
}

// A chunked read that fails part-way still accounts, and prices, the
// chunks that did cross the wire.
func TestFailedChunkedReadAccountsWhatMoved(t *testing.T) {
	ix, reg, _ := chunkedFixture(t, 65536, 4096)
	chunks := ix.Lookup("/model").Chunks
	keep := map[hashing.Fingerprint]bool{}
	for _, fp := range reg.Fingerprints() {
		keep[fp] = fp != chunks[len(chunks)-1].Fingerprint
	}
	if removed, _ := reg.Retain(keep); removed != 1 {
		t.Fatalf("dropped %d objects, want the last chunk", removed)
	}
	var hookObjects int
	var hookBytes int64
	s := mustStore(t, Options{Remote: reg, OnTransfer: func(t Transfer) time.Duration {
		hookObjects += t.Registry.Objects
		hookBytes += t.Registry.Bytes
		return 0
	}})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadFile("/model"); !errors.Is(err, gearregistry.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	moved := int64(len(chunks) - 1)
	if st := metrics(s); st.Counter("store.remote.objects") != moved || st.Counter("store.remote.bytes") != moved*4096 {
		t.Errorf("remote = %d objects / %d bytes, want %d / %d", st.Counter("store.remote.objects"), st.Counter("store.remote.bytes"), moved, moved*4096)
	}
	if int64(hookObjects) != moved || hookBytes != moved*4096 {
		t.Errorf("OnTransfer saw %d objects / %d bytes, want %d / %d", hookObjects, hookBytes, moved, moved*4096)
	}
}

// flakyRemote fails the first Download of one object, once, and counts
// every Download it is asked for.
type flakyRemote struct {
	gearregistry.Store
	victim hashing.Fingerprint

	mu        sync.Mutex
	failed    bool
	downloads int
}

var errTransient = errors.New("connection reset")

func (r *flakyRemote) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	r.mu.Lock()
	r.downloads++
	fail := fp == r.victim && !r.failed
	r.failed = r.failed || fail
	r.mu.Unlock()
	if fail {
		return nil, 0, errTransient
	}
	return r.Store.Download(fp)
}

// A ranged read that fails is an error carrying the remote's, not a
// quiet download of the whole file: one transient chunk failure costs
// one request, and the retry costs one chunk.
func TestRangedReadFailureDoesNotEscalate(t *testing.T) {
	ix, reg, big := chunkedFixture(t, 65536, 4096) // 16 chunks
	flaky := &flakyRemote{Store: reg, victim: ix.Lookup("/model").Chunks[0].Fingerprint}
	s := mustStore(t, Options{Remote: flaky})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v.ReadAt("/model", 0, 4096); !errors.Is(err, errTransient) {
		t.Fatalf("ReadAt across a failed chunk download = %d bytes, %v; want the remote's error", len(got), err)
	}
	if st := metrics(s); flaky.downloads > 1 || st.Counter("store.remote.bytes") != 0 {
		t.Errorf("failed ranged read issued %d downloads and moved %d bytes, want at most 1 and 0", flaky.downloads, st.Counter("store.remote.bytes"))
	}
	got, err := v.ReadAt("/model", 0, 4096)
	if err != nil || !bytes.Equal(got, big[:4096]) {
		t.Fatalf("second ReadAt = %d bytes, %v", len(got), err)
	}
	if st := metrics(s); flaky.downloads != 2 || st.Counter("store.remote.objects") != 1 || st.Counter("store.remote.bytes") != 4096 {
		t.Errorf("after the retry: %d downloads in all, %d objects / %d bytes moved; want 2, 1 / 4096",
			flaky.downloads, st.Counter("store.remote.objects"), st.Counter("store.remote.bytes"))
	}
}

// Every demanded chunk counts exactly one cache hit or one miss,
// however many layers of the fetch path look at it.
func TestChunkedReadCountsOneCacheAccessPerChunk(t *testing.T) {
	ix, reg, _ := chunkedFixture(t, 65536, 4096)
	const k = 16
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	// Each read also misses once on the file's own fingerprint: a ranged
	// read caches chunks, never the assembled file.
	for read, want := range []struct{ hits, misses int64 }{{0, k + 1}, {k, k + 2}} {
		if _, err := v.ReadAt("/model", 0, 65536); err != nil {
			t.Fatal(err)
		}
		got := metrics(s)
		if hits, misses := got.Counter("cache.hits"), got.Counter("cache.misses"); hits != want.hits || misses != want.misses {
			t.Errorf("read %d: cache hits/misses = %d/%d, want %d/%d", read+1, hits, misses, want.hits, want.misses)
		}
	}
}

// A chunk bigger than the whole budget degenerates to serial admission
// instead of deadlocking.
func TestChunkWindowOversizedChunk(t *testing.T) {
	ix, reg, big := chunkedFixture(t, 16384, 4096)
	slow := &slowRemote{Store: reg, delay: time.Millisecond}
	s := mustStore(t, Options{Remote: slow, ChunkWindowBytes: 1024})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadAt("/model", 0, 16384)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversized-chunk read: %v", err)
	}
	if slow.peakConc != 1 {
		t.Errorf("concurrent downloads = %d, want serial degeneration", slow.peakConc)
	}
	if peak := s.ChunkWindowPeak(); peak != 4096 {
		t.Errorf("window peak = %d, want one chunk", peak)
	}
}

// Leftover budget reads ahead along the file; the readahead chunks are
// background prefetch traffic, and a later demand read consumes them
// from the cache as prefetch hits.
func TestChunkReadahead(t *testing.T) {
	ix, reg, big := chunkedFixture(t, 20000, 4096) // 5 chunks
	s := mustStore(t, Options{Remote: reg, ChunkReadahead: 2})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadAt("/model", 0, 10)
	if err != nil || !bytes.Equal(got, big[:10]) {
		t.Fatalf("head read: %v", err)
	}
	s.WaitReadahead()
	st := metrics(s)
	if st.Counter("store.remote.objects") != 3 { // chunk 0 demand + chunks 1,2 readahead
		t.Fatalf("remote objects = %d, want 3", st.Counter("store.remote.objects"))
	}
	if st.Counter("store.prefetch.objects") != 2 || st.Gauge("store.prefetch.wasted") != 2 {
		t.Errorf("readahead accounting = %d objects / %d wasted, want 2/2",
			st.Counter("store.prefetch.objects"), st.Gauge("store.prefetch.wasted"))
	}
	// The next read lands entirely on readahead chunks: no new demand
	// wire. It reads ahead in its turn (chunks 3 and 4, in the
	// background), so the counts are only settled once that is done.
	got, err = v.ReadAt("/model", 4096, 8192)
	if err != nil || !bytes.Equal(got, big[4096:12288]) {
		t.Fatalf("follow-up read: %v", err)
	}
	s.WaitReadahead()
	st = metrics(s)
	if st.Counter("store.remote.objects") != 5 || st.Counter("store.prefetch.objects") != 4 {
		t.Errorf("follow-up: %d objects, %d of them readahead, want 5/4 (one demand fetch in all)",
			st.Counter("store.remote.objects"), st.Counter("store.prefetch.objects"))
	}
	if st.Counter("store.prefetch.hits") != 2 || st.Gauge("store.prefetch.wasted") != 2 {
		t.Errorf("hits = %d, wasted = %d, want 2/2", st.Counter("store.prefetch.hits"), st.Gauge("store.prefetch.wasted"))
	}
}

// A container whose ranged reads of a chunked file jump reads nothing
// ahead: each read fetches, and verifies, exactly the chunks it
// overlaps.
func TestJumpingReadsFetchOnlyTheirChunks(t *testing.T) {
	ix, reg, big := chunkedFixture(t, 65536, 4096) // 16 chunks
	s := mustStore(t, Options{Remote: reg, ChunkReadahead: 2})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v := mustContainer(t, s, "ai:v1")
	// Chunks 5-6, 1, 10-11, 3-4, 13: none starts the file, none starts
	// in or right after the chunk the read before it ended in.
	reads := []struct{ off, n int64 }{
		{5*4096 + 100, 4096}, {4096, 10}, {10 * 4096, 2 * 4096}, {3*4096 + 4000, 200}, {13 * 4096, 4096},
	}
	const chunks = 8
	before := hashing.FingerprintedBytes()
	for _, r := range reads {
		got, err := v.ReadAt("/model", r.off, r.n)
		if err != nil || !bytes.Equal(got, big[r.off:r.off+r.n]) {
			t.Fatalf("read [%d,+%d): %v", r.off, r.n, err)
		}
	}
	s.WaitReadahead()
	st := metrics(s)
	if got := st.Counter("store.chunk.readahead"); got != 0 {
		t.Errorf("store.chunk.readahead = %d, want 0", got)
	}
	if objs, b := st.Counter("store.remote.objects"), st.Counter("store.remote.bytes"); objs != chunks || b != chunks*4096 {
		t.Errorf("remote = %d objects / %d bytes, want the %d overlapped chunks", objs, b, chunks)
	}
	if got := hashing.FingerprintedBytes() - before; got != chunks*4096 {
		t.Errorf("fingerprinted %d bytes, want the %d overlapped chunks' %d once", got, chunks, chunks*4096)
	}
}

// Two containers interleave front-to-back streams over one file, each
// at its own place in it: every read continues its own container's
// stream and reads ahead, whatever the other container read last. The
// level-1 cache is emptied before each read so that every readahead
// moves bytes.
func TestContainersKeepTheirOwnStreams(t *testing.T) {
	ix, reg, big := chunkedFixture(t, 32*4096, 4096) // 32 chunks
	s := mustStore(t, Options{Remote: reg, ChunkReadahead: 2})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	a, err := s.CreateContainer("a", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.CreateContainer("b", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		v       *viewer.Viewer
		off, n  int64
		overlap int64
	}{
		{a, 0, 4096, 1},            // a: chunk 0
		{b, 0, 8 * 4096, 8},        // b: chunks 0-7
		{a, 4096, 4096, 1},         // a: chunk 1, right after its 0
		{b, 8 * 4096, 2 * 4096, 2}, // b: chunks 8-9, right after its 7
		{a, 2*4096 + 100, 4096, 2}, // a: chunks 2-3, right after its 1
		{b, 10*4096 - 50, 100, 2},  // b: chunks 9-10, in its 9
	}
	for i, r := range reads {
		s.ClearCache()
		st := metrics(s)
		objs, ra := st.Counter("store.remote.objects"), st.Counter("store.chunk.readahead")
		got, err := r.v.ReadAt("/model", r.off, r.n)
		if err != nil || !bytes.Equal(got, big[r.off:r.off+r.n]) {
			t.Fatalf("read %d [%d,+%d): %v", i, r.off, r.n, err)
		}
		s.WaitReadahead()
		st = metrics(s)
		if got := st.Counter("store.chunk.readahead") - ra; got != 2 {
			t.Errorf("read %d read ahead %d chunks, want 2", i, got)
		}
		if got := st.Counter("store.remote.objects") - objs; got != r.overlap+2 {
			t.Errorf("read %d fetched %d objects, want its %d chunks and 2 ahead", i, got, r.overlap)
		}
	}
}

// One container's goroutines read one file at once, each streaming
// front to back from its own place: the container's stream table is
// theirs to share, and every chunk is still fetched once.
func TestOneContainerReadsConcurrently(t *testing.T) {
	ix, reg, big := chunkedFixture(t, 65536, 4096) // 16 chunks
	s := mustStore(t, Options{Remote: reg, ChunkReadahead: 2})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v := mustContainer(t, s, "ai:v1")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := int64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(0); k < 16; k++ {
				off := (g*2 + k) % 16 * 4096
				got, err := v.ReadAt("/model", off+g, 4096)
				if err == nil && !bytes.Equal(got, big[off+g:min(off+g+4096, 65536)]) {
					err = fmt.Errorf("read [%d,+4096): bytes differ", off+g)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	s.WaitReadahead()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != 16 {
		t.Errorf("remote objects = %d, want each of the 16 chunks once", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// With RangeReads enabled and a range-capable registry, a ranged fault
// on a NON-chunked file moves only the requested bytes and does not
// materialize the file; the slice is not cached, so the path trades
// repeat-read locality for first-touch latency.
func TestRangeReadsFastPath(t *testing.T) {
	ix, reg := fixture(t)
	s := mustStore(t, Options{Remote: reg, RangeReads: true})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadAt("/bin/app", 100, 50)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xcd}, 50)) {
		t.Fatalf("range fast path: %q, %v", got, err)
	}
	st := metrics(s)
	if st.Counter("store.remote.objects") != 1 || st.Counter("store.remote.bytes") != 50 {
		t.Errorf("remote = %d objects / %d bytes, want 1/50", st.Counter("store.remote.objects"), st.Counter("store.remote.bytes"))
	}
	if metrics(s).Gauge("cache.objects") != 0 {
		t.Error("partial read entered the cache")
	}
	// Uncached: a second cold partial read re-fetches.
	if _, err := v.ReadAt("/bin/app", 0, 10); err != nil {
		t.Fatal(err)
	}
	if st := metrics(s); st.Counter("store.remote.objects") != 2 || st.Counter("store.remote.bytes") != 60 {
		t.Errorf("second range = %d objects / %d bytes, want 2/60", st.Counter("store.remote.objects"), st.Counter("store.remote.bytes"))
	}
	// Materializing caches the whole file; later ranges are local.
	if _, err := v.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	base := metrics(s).Counter("store.remote.bytes")
	if _, err := v.ReadAt("/bin/app", 1, 1); err != nil {
		t.Fatal(err)
	}
	if st := metrics(s); st.Counter("store.remote.bytes") != base {
		t.Errorf("materialized range still hit the wire: %d -> %d", base, st.Counter("store.remote.bytes"))
	}
	// A range past the end falls back to the full-read clamp.
	tail, err := v.ReadAt("/etc/conf", 5, 100)
	if err != nil || string(tail) != "80\n" {
		t.Errorf("oob fallback = %q, %v", tail, err)
	}
}

// Without the option non-chunked ranged reads keep the pre-range
// behavior: full materialization.
func TestRangeReadsDisabledDegenerates(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadAt("/bin/app", 100, 50)
	if err != nil || len(got) != 50 {
		t.Fatal(err)
	}
	// Whole file crossed the wire and is cached — the legacy path.
	if st := metrics(s); st.Counter("store.remote.bytes") != 4096 {
		t.Errorf("remote bytes = %d, want full file", st.Counter("store.remote.bytes"))
	}
	if metrics(s).Gauge("cache.objects") != 1 {
		t.Error("file not materialized")
	}
}

// mustStore builds a store that publishes into a registry of its own,
// unless opts names one, for metrics to read its counters from.
func mustStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
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

// containerResolver is the resolver a container created on ref reads
// through: its ranged reads keep a stream of their own.
func containerResolver(s *Store, ref string) *containerFaults {
	return &containerFaults{s: s, st: s.installed(ref)}
}

// imageFingerprints is every file fingerprint of an index: what an
// eager whole-image FetchAll pulls.
func imageFingerprints(ix *index.Index) []hashing.Fingerprint {
	var fps []hashing.Fingerprint
	walkEntries(ix.Root, "", func(_ string, e *index.Entry) {
		if e.Fingerprint != "" {
			fps = append(fps, e.Fingerprint)
		}
	})
	return fps
}

// metrics snapshots the registry s publishes its store.* and cache.*
// counters into. A store without a registry would read as all zeros, so
// metrics refuses one: build the store with mustStore.
func metrics(s *Store) telemetry.Snapshot {
	if s.opts.Telemetry == nil {
		panic("metrics: store has no telemetry registry; build it with mustStore")
	}
	return s.opts.Telemetry.Snapshot()
}

// A container's ranged read materializes and slices a non-chunked file
// when the range verb is off. (The viewer refuses a negative offset and
// answers an empty range itself: viewer's TestReadAt.)
func TestResolveRangeValidation(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	fp := ix.Lookup("/bin/app").Fingerprint
	r := containerResolver(s, "web:v1")
	got, err := r.ResolveRange("web:v1", "/bin/app", fp, 4096, 0, 10)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xcd}, 10)) {
		t.Errorf("non-chunked without RangeReads = %q, %v", got, err)
	}
	if metrics(s).Gauge("cache.objects") != 1 {
		t.Error("file not materialized")
	}
}
