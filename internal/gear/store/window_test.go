package store

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
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
	ix, pool, err := index.BuildPolicy("ai", "v1", imagefmt.Config{}, root, nil, index.FixedChunks(chunkSize), 1)
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
	s, err := New(Options{Remote: slow, ChunkWindowBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
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
	if st := s.Stats(); st.RemoteObjects != 16 || st.RemoteBytes != 65536 {
		t.Errorf("remote = %d objects / %d bytes", st.RemoteObjects, st.RemoteBytes)
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
	if _, err := reg.Delete(chunks[len(chunks)-1].Fingerprint); err != nil {
		t.Fatal(err)
	}
	var hookObjects int
	var hookBytes int64
	s := mustStore(t, Options{Remote: reg, OnTransfer: func(t Transfer) {
		hookObjects += t.Registry.Objects
		hookBytes += t.Registry.Bytes
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
	if st := s.Stats(); st.RemoteObjects != moved || st.RemoteBytes != moved*4096 {
		t.Errorf("remote = %d objects / %d bytes, want %d / %d", st.RemoteObjects, st.RemoteBytes, moved, moved*4096)
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
	if st := s.Stats(); flaky.downloads > 1 || st.RemoteBytes != 0 {
		t.Errorf("failed ranged read issued %d downloads and moved %d bytes, want at most 1 and 0", flaky.downloads, st.RemoteBytes)
	}
	got, err := v.ReadAt("/model", 0, 4096)
	if err != nil || !bytes.Equal(got, big[:4096]) {
		t.Fatalf("second ReadAt = %d bytes, %v", len(got), err)
	}
	if st := s.Stats(); flaky.downloads != 2 || st.RemoteObjects != 1 || st.RemoteBytes != 4096 {
		t.Errorf("after the retry: %d downloads in all, %d objects / %d bytes moved; want 2, 1 / 4096",
			flaky.downloads, st.RemoteObjects, st.RemoteBytes)
	}
	if st := v.Stats(); st.Reads != 2 || st.Faults != 2 {
		t.Errorf("viewer counted %d reads, %d faults for two ReadAt calls", st.Reads, st.Faults)
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
	for read, want := range []cache.Stats{{Hits: 0, Misses: k + 1}, {Hits: k, Misses: k + 2}} {
		if _, err := v.ReadAt("/model", 0, 65536); err != nil {
			t.Fatal(err)
		}
		if got := s.CacheStats(); got.Hits != want.Hits || got.Misses != want.Misses {
			t.Errorf("read %d: cache hits/misses = %d/%d, want %d/%d", read+1, got.Hits, got.Misses, want.Hits, want.Misses)
		}
	}
}

// A chunk bigger than the whole budget degenerates to serial admission
// instead of deadlocking.
func TestChunkWindowOversizedChunk(t *testing.T) {
	ix, reg, big := chunkedFixture(t, 16384, 4096)
	slow := &slowRemote{Store: reg, delay: time.Millisecond}
	s, err := New(Options{Remote: slow, ChunkWindowBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
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
	s, err := New(Options{Remote: reg, ChunkReadahead: 2})
	if err != nil {
		t.Fatal(err)
	}
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
	st := s.Stats()
	if st.RemoteObjects != 3 { // chunk 0 demand + chunks 1,2 readahead
		t.Fatalf("remote objects = %d, want 3", st.RemoteObjects)
	}
	if st.PrefetchObjects != 2 || st.PrefetchWasted != 2 {
		t.Errorf("readahead accounting = %d objects / %d wasted, want 2/2",
			st.PrefetchObjects, st.PrefetchWasted)
	}
	// The next read lands entirely on readahead chunks: no new demand
	// wire. It reads ahead in its turn (chunks 3 and 4, in the
	// background), so the counts are only settled once that is done.
	got, err = v.ReadAt("/model", 4096, 8192)
	if err != nil || !bytes.Equal(got, big[4096:12288]) {
		t.Fatalf("follow-up read: %v", err)
	}
	s.WaitReadahead()
	st = s.Stats()
	if st.RemoteObjects != 5 || st.PrefetchObjects != 4 {
		t.Errorf("follow-up: %d objects, %d of them readahead, want 5/4 (one demand fetch in all)",
			st.RemoteObjects, st.PrefetchObjects)
	}
	if st.PrefetchHits != 2 || st.PrefetchWasted != 2 {
		t.Errorf("hits = %d, wasted = %d, want 2/2", st.PrefetchHits, st.PrefetchWasted)
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
	s, err := New(Options{Remote: reg, RangeReads: true})
	if err != nil {
		t.Fatal(err)
	}
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
	st := s.Stats()
	if st.RemoteObjects != 1 || st.RemoteBytes != 50 {
		t.Errorf("remote = %d objects / %d bytes, want 1/50", st.RemoteObjects, st.RemoteBytes)
	}
	if s.CacheStats().Objects != 0 {
		t.Error("partial read entered the cache")
	}
	// Uncached: a second cold partial read re-fetches.
	if _, err := v.ReadAt("/bin/app", 0, 10); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.RemoteObjects != 2 || st.RemoteBytes != 60 {
		t.Errorf("second range = %d objects / %d bytes, want 2/60", st.RemoteObjects, st.RemoteBytes)
	}
	// Materializing caches the whole file; later ranges are local.
	if _, err := v.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	base := s.Stats().RemoteBytes
	if _, err := v.ReadAt("/bin/app", 1, 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.RemoteBytes != base {
		t.Errorf("materialized range still hit the wire: %d -> %d", base, st.RemoteBytes)
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
	if st := s.Stats(); st.RemoteBytes != 4096 {
		t.Errorf("remote bytes = %d, want full file", st.RemoteBytes)
	}
	if s.CacheStats().Objects != 1 {
		t.Error("file not materialized")
	}
}

func mustStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ResolveRange validates its range, and materializes and slices a
// non-chunked file when the range verb is off.
func TestResolveRangeValidation(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	fp := ix.Lookup("/bin/app").Fingerprint
	if _, err := s.ResolveRange("web:v1", "/bin/app", fp, 4096, -1, 10); !errors.Is(err, ErrBadRange) {
		t.Errorf("negative off: %v", err)
	}
	if _, err := s.ResolveRange("web:v1", "/bin/app", fp, 4096, 0, 0); !errors.Is(err, ErrBadRange) {
		t.Errorf("zero n: %v", err)
	}
	got, err := s.ResolveRange("web:v1", "/bin/app", fp, 4096, 0, 10)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xcd}, 10)) {
		t.Errorf("non-chunked without RangeReads = %q, %v", got, err)
	}
	if s.CacheStats().Objects != 1 {
		t.Error("file not materialized")
	}
}
