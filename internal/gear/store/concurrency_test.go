package store

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// countingStore wraps a registry and counts Download calls per
// fingerprint, to assert the singleflight dedup guarantee.
type countingStore struct {
	gearregistry.Store

	mu    sync.Mutex
	calls map[hashing.Fingerprint]int
}

func newCountingStore(inner *gearregistry.Registry) *countingStore {
	return &countingStore{Store: inner, calls: make(map[hashing.Fingerprint]int)}
}

func (c *countingStore) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	c.mu.Lock()
	c.calls[fp]++
	c.mu.Unlock()
	return c.Store.Download(fp)
}

func (c *countingStore) DownloadBatch(fps []hashing.Fingerprint) ([][]byte, int64, error) {
	return perObject(c.Download, fps)
}

// perObject serves a batch as one download call per object, so a fake
// that counts, gates or delays its Download sees every object a
// FetchAll moves.
func perObject(download func(hashing.Fingerprint) ([]byte, int64, error), fps []hashing.Fingerprint) ([][]byte, int64, error) {
	payloads := make([][]byte, len(fps))
	var wire int64
	for i, fp := range fps {
		data, w, err := download(fp)
		if err != nil {
			return nil, 0, err
		}
		payloads[i] = data
		wire += w
	}
	return payloads, wire, nil
}

func (c *countingStore) counts() map[hashing.Fingerprint]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[hashing.Fingerprint]int, len(c.calls))
	for fp, n := range c.calls {
		out[fp] = n
	}
	return out
}

// bigFixture builds an image with many distinct files.
func bigFixture(t *testing.T, files int) (*index.Index, *gearregistry.Registry) {
	t.Helper()
	root := vfs.New()
	if err := root.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		data := bytes.Repeat([]byte(fmt.Sprintf("file %d ", i)), 64)
		if err := root.WriteFile(fmt.Sprintf("/data/f%03d", i), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ix, pool, err := index.Build("big", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	return ix, reg
}

// TestConcurrentFaultsSingleDownload: N goroutines faulting the same
// file set through many containers must trigger exactly one remote
// download per fingerprint — the singleflight guarantee, observed both
// at the registry and via OnTransfer.
func TestConcurrentFaultsSingleDownload(t *testing.T) {
	const goroutines = 16
	ix, reg := bigFixture(t, 12)
	counting := newCountingStore(reg)

	var hookObjects atomic.Int64
	s := mustStore(t, Options{
		Remote: counting,
		OnTransfer: func(t Transfer) time.Duration {
			hookObjects.Add(int64(t.Registry.Objects))
			return 0
		},
	})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}

	paths := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		paths = append(paths, fmt.Sprintf("/data/f%03d", i))
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		v, err := s.CreateContainer(fmt.Sprintf("c%d", g), "big:v1")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range paths {
				if _, err := v.ReadFile(p); err != nil {
					errs <- fmt.Errorf("%s: %w", p, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for fp, n := range counting.counts() {
		if n != 1 {
			t.Errorf("fingerprint %s downloaded %d times, want 1", fp, n)
		}
	}
	st := metrics(s)
	if st.Counter("store.remote.objects") != 12 {
		t.Errorf("remote objects = %d, want 12", st.Counter("store.remote.objects"))
	}
	if hookObjects.Load() != 12 {
		t.Errorf("OnTransfer saw %d objects, want 12", hookObjects.Load())
	}
}

// TestFetchAllDedupsAgainstConcurrentFaults: FetchAll running while
// goroutines lazily fault the same fingerprints must still produce
// exactly one download per object.
func TestFetchAllDedupsAgainstConcurrentFaults(t *testing.T) {
	const files = 32
	ix, reg := bigFixture(t, files)
	counting := newCountingStore(reg)
	s := mustStore(t, Options{Remote: counting, FetchWorkers: 4})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c", "big:v1")
	if err != nil {
		t.Fatal(err)
	}

	var paths []string
	var fps []hashing.Fingerprint
	walkEntries(ix.Root, "", func(p string, e *index.Entry) {
		if e.Type == vfs.TypeRegular {
			paths = append(paths, p)
			fps = append(fps, e.Fingerprint)
		}
	})
	if len(fps) != files {
		t.Fatalf("fixture has %d files, want %d", len(fps), files)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.FetchAll(fps); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range paths {
				if _, err := v.ReadFile(p); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for fp, n := range counting.counts() {
		if n != 1 {
			t.Errorf("fingerprint %s downloaded %d times, want 1", fp, n)
		}
	}
	st := metrics(s)
	if st.Counter("store.remote.objects") != files {
		t.Errorf("remote objects = %d, want %d", st.Counter("store.remote.objects"), files)
	}
}

// TestFetchAllBatchesPerWorker: with a batch-capable remote, FetchAll
// issues one DownloadBatch per worker and the window reflects the
// shards.
func TestFetchAllBatchesPerWorker(t *testing.T) {
	const files = 20
	ix, reg := bigFixture(t, files)
	s := mustStore(t, Options{Remote: reg, FetchWorkers: 4})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	var fps []hashing.Fingerprint
	walkEntries(ix.Root, "", func(_ string, e *index.Entry) {
		if e.Type == vfs.TypeRegular {
			fps = append(fps, e.Fingerprint)
		}
	})

	var windows [][]StreamStat
	s.opts.OnTransfer = func(t Transfer) time.Duration {
		windows = append(windows, t.Window)
		return 0
	}
	window, err := s.FetchAll(fps)
	if err != nil {
		t.Fatal(err)
	}
	if len(window.Streams) != 4 {
		t.Fatalf("got %d streams, want 4", len(window.Streams))
	}
	if window.Objects() != files {
		t.Errorf("window objects = %d, want %d", window.Objects(), files)
	}
	for i, st := range window.Streams {
		if !st.Batched {
			t.Errorf("stream %d not batched", i)
		}
		if st.Objects != files/4 {
			t.Errorf("stream %d has %d objects, want %d", i, st.Objects, files/4)
		}
	}
	if len(windows) != 1 || !reflect.DeepEqual(windows[0], window.Streams) {
		t.Fatalf("OnTransfer saw windows %v, want the one FetchAll returned", windows)
	}

	// Second FetchAll: everything cached, no streams, no hook.
	window, err = s.FetchAll(fps)
	if err != nil {
		t.Fatal(err)
	}
	if window.Objects() != 0 || len(windows) != 1 {
		t.Errorf("warm FetchAll fetched %d objects, hook fired %d times", window.Objects(), len(windows))
	}
}

// TestFetchAllWorkersEquivalent: the same fingerprint set fetched with
// different worker counts yields identical cache contents and identical
// remote byte/object totals — parallelism changes time, not volume.
func TestFetchAllWorkersEquivalent(t *testing.T) {
	const files = 17 // not divisible by worker counts: exercises uneven shards
	ix, reg := bigFixture(t, files)
	var fps []hashing.Fingerprint
	walkEntries(ix.Root, "", func(_ string, e *index.Entry) {
		if e.Type == vfs.TypeRegular {
			fps = append(fps, e.Fingerprint)
		}
	})

	var base telemetry.Snapshot
	for i, workers := range []int{1, 2, 4, 8, 16} {
		s := mustStore(t, Options{Remote: reg, FetchWorkers: workers})
		if err := s.AddIndex(ix); err != nil {
			t.Fatal(err)
		}
		if _, err := s.FetchAll(fps); err != nil {
			t.Fatal(err)
		}
		st := metrics(s)
		if i == 0 {
			if st.Counter("store.remote.objects") == 0 || st.Counter("store.remote.bytes") == 0 {
				t.Fatalf("workers=%d: FetchAll counted no remote objects or bytes", workers)
			}
			base = st
			continue
		}
		if st.Counter("store.remote.objects") != base.Counter("store.remote.objects") || st.Counter("store.remote.bytes") != base.Counter("store.remote.bytes") {
			t.Errorf("workers=%d: objects/bytes = %d/%d, want %d/%d",
				workers, st.Counter("store.remote.objects"), st.Counter("store.remote.bytes"), base.Counter("store.remote.objects"), base.Counter("store.remote.bytes"))
		}
	}
}

// TestConcurrentContainerLifecycle: container create/fault/remove racing
// across goroutines must not deadlock (the RemoveContainer/fault lock
// cycle) or corrupt store state.
func TestConcurrentContainerLifecycle(t *testing.T) {
	ix, reg := bigFixture(t, 8)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := fmt.Sprintf("c%d-%d", g, i)
				v, err := s.CreateContainer(id, "big:v1")
				if err != nil {
					t.Error(err)
					return
				}
				p := fmt.Sprintf("/data/f%03d", (g+i)%8)
				if _, err := v.ReadFile(p); err != nil {
					t.Error(err)
					return
				}
				if err := s.RemoveContainer(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := metrics(s); st.Gauge("store.containers") != 0 {
		t.Errorf("containers left = %d, want 0", st.Gauge("store.containers"))
	}
}

// TestSnapshotDuringConcurrentFetchAll: readers hammering the shared
// telemetry registry's Snapshot() while FetchAll and demand faults
// publish concurrently must stay race-clean (run under -race), and every
// mid-flight snapshot must validate.
func TestSnapshotDuringConcurrentFetchAll(t *testing.T) {
	const files = 32
	ix, reg := bigFixture(t, files)
	tele := telemetry.NewRegistry()
	s := mustStore(t, Options{Remote: reg, FetchWorkers: 4, Telemetry: tele})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c", "big:v1")
	if err != nil {
		t.Fatal(err)
	}

	var paths []string
	var fps []hashing.Fingerprint
	walkEntries(ix.Root, "", func(p string, e *index.Entry) {
		if e.Type == vfs.TypeRegular {
			paths = append(paths, p)
			fps = append(fps, e.Fingerprint)
		}
	})

	done := make(chan struct{})
	var snapshots atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := tele.Snapshot()
				if err := snap.Validate(); err != nil {
					t.Errorf("mid-flight snapshot invalid: %v", err)
					return
				}
				snapshots.Add(1)
			}
		}()
	}

	var writers sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			if _, err := s.FetchAll(fps); err != nil {
				errs <- err
			}
		}()
		writers.Add(1)
		go func() {
			defer writers.Done()
			for _, p := range paths {
				if _, err := v.ReadFile(p); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if snapshots.Load() == 0 {
		t.Fatal("snapshot readers never ran")
	}

	if got := tele.Snapshot().Counter("store.remote.objects"); got != files {
		t.Errorf("remote objects = %d, want %d", got, files)
	}
}

// TestConcurrentPrefetchAndDeploy: a FetchAll of the whole image racing
// container reads.
func TestConcurrentPrefetchAndDeploy(t *testing.T) {
	ix, reg := bigFixture(t, 24)
	counting := newCountingStore(reg)
	s := mustStore(t, Options{Remote: counting, FetchWorkers: 4})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c", "big:v1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := s.FetchAll(imageFingerprints(ix)); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 24; i++ {
			if _, err := v.ReadFile(fmt.Sprintf("/data/f%03d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for fp, n := range counting.counts() {
		if n != 1 {
			t.Errorf("fingerprint %s downloaded %d times, want 1", fp, n)
		}
	}
}
