package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// fixture builds a converted Gear image published into a fresh Gear
// registry and returns the index plus the registry.
func fixture(t *testing.T) (*index.Index, *gearregistry.Registry) {
	t.Helper()
	root := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(root.MkdirAll("/etc", 0o755))
	must(root.MkdirAll("/bin", 0o755))
	must(root.WriteFile("/bin/app", bytes.Repeat([]byte{0xcd}, 4096), 0o755))
	must(root.WriteFile("/etc/conf", []byte("port=80\n"), 0o644))
	must(root.WriteFile("/etc/conf.bak", []byte("port=80\n"), 0o644)) // duplicate content
	must(root.Symlink("/bin/app", "/bin/app-link"))

	ix, pool, err := index.Build("web", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	gearReg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := gearReg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	return ix, gearReg
}

func newStore(t *testing.T, remote gearregistry.Store) *Store {
	t.Helper()
	return mustStore(t, Options{Remote: remote})
}

func TestDeployAndLazyRead(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	// First read faults and fetches remotely.
	got, err := v.ReadFile("/etc/conf")
	if err != nil || string(got) != "port=80\n" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	st := metrics(s)
	if st.Counter("store.remote.objects") != 1 {
		t.Errorf("remote objects = %d, want 1", st.Counter("store.remote.objects"))
	}
	// Second read of the same file is local (placeholder was replaced).
	if _, err := v.ReadFile("/etc/conf"); err != nil {
		t.Fatal(err)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != 1 {
		t.Errorf("remote objects after re-read = %d, want 1", got)
	}
	if got := metrics(s).Counter("store.demand.misses"); got != 1 {
		t.Errorf("demand misses = %d, want 1: only the first read faults", got)
	}
	// Duplicate content under another path: served from cache, no fetch.
	if _, err := v.ReadFile("/etc/conf.bak"); err != nil {
		t.Fatal(err)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != 1 {
		t.Errorf("remote objects after dup read = %d, want 1 (cache hit)", got)
	}
}

func TestSymlinkReadNeedsNoFetch(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	target, err := v.Readlink("/bin/app-link")
	if err != nil || target != "/bin/app" {
		t.Errorf("Readlink = %q, %v", target, err)
	}
	if metrics(s).Counter("store.remote.objects") != 0 {
		t.Error("irregular file access triggered a fetch")
	}
}

func TestStatReportsRealSizeWithoutFetch(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	info, err := v.Stat("/bin/app")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 4096 || !info.Lazy {
		t.Errorf("Stat = %+v, want size 4096 lazy", info)
	}
	if metrics(s).Counter("store.remote.objects") != 0 {
		t.Error("stat triggered a fetch")
	}
	// After materialization, Lazy flips off.
	if _, err := v.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	info, err = v.Stat("/bin/app")
	if err != nil || info.Lazy || info.Size != 4096 {
		t.Errorf("Stat after read = %+v, %v", info, err)
	}
}

func TestMaterializationSharedAcrossContainers(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v1, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.CreateContainer("c2", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v1.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	// c2 reads the same file: served from the shared index tree, no new
	// fetch and no new fault — c2 sees it materialized already.
	if info, err := v2.Stat("/bin/app"); err != nil || info.Lazy {
		t.Errorf("c2 Stat = %+v, %v; want the file c1 materialized", info, err)
	}
	if _, err := v2.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != 1 {
		t.Errorf("remote objects = %d, want 1", got)
	}
}

func TestWritesStayInDiff(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v1, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.CreateContainer("c2", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.WriteFile("/etc/conf", []byte("port=8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := v1.ReadFile("/etc/conf")
	if err != nil || string(got) != "port=8080\n" {
		t.Errorf("c1 sees %q, %v", got, err)
	}
	// c2 is isolated from c1's write.
	got, err = v2.ReadFile("/etc/conf")
	if err != nil || string(got) != "port=80\n" {
		t.Errorf("c2 sees %q, %v", got, err)
	}
}

func TestContainerDataThatLooksLikePlaceholder(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	fake := index.Placeholder("00000000000000000000000000000000", 99)
	if err := v.WriteFile("/etc/fake", fake, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadFile("/etc/fake")
	if err != nil || !bytes.Equal(got, fake) {
		t.Errorf("container's own placeholder-looking data was intercepted: %q, %v", got, err)
	}
	if metrics(s).Counter("store.remote.objects") != 0 {
		t.Error("fake placeholder triggered a fetch")
	}
}

func TestDeleteAndWhiteout(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("/etc/conf"); err != nil {
		t.Fatal(err)
	}
	if v.Exists("/etc/conf") {
		t.Error("file visible after remove")
	}
	if _, err := v.ReadFile("/etc/conf"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
	// The whiteout lives in the diff layer.
	if st := v.DiffTree().Stats(); st.Files != 1 {
		t.Errorf("diff files = %d, want 1 whiteout", st.Files)
	}
}

func TestLifecycleDecoupling(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	// Deleting the container leaves the index and cache intact.
	if err := s.RemoveContainer("c1"); err != nil {
		t.Fatal(err)
	}
	if !s.HasIndex("web:v1") {
		t.Error("index vanished with container")
	}
	if metrics(s).Gauge("cache.objects") == 0 {
		t.Error("cache emptied with container")
	}
	// A new container launches from level 2 without re-fetching.
	v2, err := s.CreateContainer("c2", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	before := metrics(s).Counter("store.remote.objects")
	if _, err := v2.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != before {
		t.Error("rematerialization after container delete")
	}
	// Deleting the image leaves Gear files shared in the cache.
	if err := s.RemoveIndex("web:v1"); err != nil {
		t.Fatal(err)
	}
	if metrics(s).Gauge("cache.objects") == 0 {
		t.Error("cache emptied with image")
	}
	// Closed container rejects use.
	if _, err := v.ReadFile("/bin/app"); err == nil {
		t.Error("closed viewer still serves reads")
	}
}

func TestStoreErrors(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if _, err := s.CreateContainer("c1", "ghost:v1"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("err = %v, want ErrNoIndex", err)
	}
	if err := s.RemoveIndex("ghost:v1"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("err = %v, want ErrNoIndex", err)
	}
	if err := s.RemoveContainer("ghost"); !errors.Is(err, ErrNoContainer) {
		t.Errorf("err = %v, want ErrNoContainer", err)
	}
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex(ix); !errors.Is(err, ErrIndexExists) {
		t.Errorf("err = %v, want ErrIndexExists", err)
	}
	if _, err := s.CreateContainer("c1", "web:v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateContainer("c1", "web:v1"); !errors.Is(err, ErrContainerBusy) {
		t.Errorf("err = %v, want ErrContainerBusy", err)
	}
	if _, err := s.Index("web:v1"); err != nil {
		t.Errorf("Index() = %v", err)
	}
	if _, err := s.Index("nope:v9"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("err = %v, want ErrNoIndex", err)
	}
}

func TestDisconnectedClientFailsCleanly(t *testing.T) {
	ix, _ := fixture(t)
	s := newStore(t, nil)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadFile("/bin/app"); !errors.Is(err, gearregistry.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestPrefetch(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchAll(imageFingerprints(ix)); err != nil {
		t.Fatal(err)
	}
	// All unique files are now cached; a fresh container reads with zero
	// remote traffic.
	before := metrics(s).Counter("store.remote.bytes")
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/bin/app", "/etc/conf", "/etc/conf.bak"} {
		if _, err := v.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := metrics(s).Counter("store.remote.bytes"); got != before {
		t.Errorf("prefetched image still fetched %d bytes", got-before)
	}
}

func TestOnTransferHook(t *testing.T) {
	ix, reg := fixture(t)
	var objects int
	var bytesFetched int64
	s := mustStore(t, Options{Remote: reg, OnTransfer: func(t Transfer) time.Duration {
		objects += t.Registry.Objects
		bytesFetched += t.Registry.Bytes
		return 0
	}})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	if objects != 1 || bytesFetched != 4096 {
		t.Errorf("hook saw %d objects / %d bytes", objects, bytesFetched)
	}
}

func TestCommitProducesDeployableImage(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile("/etc/extra", []byte("new data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("/etc/conf.bak"); err != nil {
		t.Fatal(err)
	}
	newIx, newFiles, err := s.Commit("c1", "web", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if newIx.Reference() != "web:v2" {
		t.Errorf("ref = %s", newIx.Reference())
	}
	if len(newFiles) != 1 {
		t.Errorf("new files = %d, want 1", len(newFiles))
	}
	if newIx.Lookup("/etc/extra") == nil {
		t.Error("committed file missing from new index")
	}
	if newIx.Lookup("/etc/conf.bak") != nil {
		t.Error("removed file present in new index")
	}
	// Unchanged entries keep their fingerprints (shared with v1).
	if newIx.Lookup("/bin/app").Fingerprint != ix.Lookup("/bin/app").Fingerprint {
		t.Error("unchanged file fingerprint drifted")
	}
	// Upload new files; the committed image deploys on a second store.
	for fp, data := range newFiles {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	s2 := newStore(t, reg)
	if err := s2.AddIndex(newIx); err != nil {
		t.Fatal(err)
	}
	v2, err := s2.CreateContainer("c1", "web:v2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v2.ReadFile("/etc/extra")
	if err != nil || string(got) != "new data" {
		t.Errorf("committed file = %q, %v", got, err)
	}
	if _, _, err := s.Commit("ghost", "a", "b"); !errors.Is(err, ErrNoContainer) {
		t.Errorf("err = %v, want ErrNoContainer", err)
	}
}

func TestChunkedFileFetch(t *testing.T) {
	root := vfs.New()
	big := make([]byte, 10000)
	rand.New(rand.NewSource(3)).Read(big)
	if err := root.WriteFile("/model", big, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, pool, err := index.BuildPolicy("ai", "v1", imagefmt.Config{}, root, nil, index.FixedChunks(4096))
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadFile("/model")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("chunked read: %d bytes, %v", len(got), err)
	}
	st := metrics(s)
	if st.Counter("store.remote.objects") != 3 { // 4096+4096+1808
		t.Errorf("remote objects = %d, want 3 chunks", st.Counter("store.remote.objects"))
	}
	if st.Counter("store.remote.bytes") != 10000 {
		t.Errorf("remote bytes = %d", st.Counter("store.remote.bytes"))
	}
	// Re-read: assembled file is cached whole.
	if _, err := v.ReadFile("/model"); err != nil {
		t.Fatal(err)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != 3 {
		t.Errorf("re-read fetched again: %d", got)
	}
}

func TestConcurrentFaultsOnSameFile(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.CreateContainer(fmt.Sprintf("c%d", i), "web:v1")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := v.ReadFile("/bin/app"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	// The file crosses the wire at most... once per racing fault is
	// acceptable, but the cache must contain exactly one copy.
	if got := metrics(s).Gauge("cache.objects"); got != 1 {
		t.Errorf("cache objects = %d, want 1", got)
	}
}

func TestEndToEndWithConverter(t *testing.T) {
	// Full pipeline: Docker image -> converter -> publish -> deploy.
	base := vfs.New()
	if err := base.MkdirAll("/srv", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile("/srv/site.html", []byte("<h1>hello</h1>"), 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := imagefmt.SingleLayerImage("site", "v1", base, imagefmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := convert.New(convert.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conv.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	gearReg := gearregistry.New(gearregistry.Options{})
	for fp, data := range res.Files {
		if err := gearReg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	s := newStore(t, gearReg)
	if err := s.AddIndex(res.Index); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "site:v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadFile("/srv/site.html")
	if err != nil || string(got) != "<h1>hello</h1>" {
		t.Errorf("end-to-end read = %q, %v", got, err)
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	// A tiny cache forces eviction of unmaterialized (unlinked) files.
	root := vfs.New()
	for i := 0; i < 10; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 1000)
		if err := root.WriteFile(fmt.Sprintf("/f%d", i), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ix, pool, err := index.Build("many", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	s := mustStore(t, Options{Remote: reg, CacheCapacity: 3000, CachePolicy: cache.FIFO})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "many:v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := v.ReadFile(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Files are hard-linked into the index, so they are pinned; the
	// cache may exceed capacity but must never lose a linked file.
	for i := 0; i < 10; i++ {
		if _, err := v.ReadFile(fmt.Sprintf("/f%d", i)); err != nil {
			t.Errorf("linked file lost: %v", err)
		}
	}
	if got := metrics(s).Counter("store.remote.objects"); got != 10 {
		t.Errorf("remote objects = %d, want 10 (no refetch of linked files)", got)
	}
}

// tamperedStore is a registry whose pool was corrupted behind its back:
// every object it holds downloads as other bytes.
type tamperedStore struct{ *gearregistry.Registry }

var tampered = []byte("tampered bytes")

func (s tamperedStore) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	if _, _, err := s.Registry.Download(fp); err != nil {
		return nil, 0, err
	}
	return tampered, int64(len(tampered)), nil
}

func (s tamperedStore) DownloadBatch(fps []hashing.Fingerprint) ([][]byte, int64, error) {
	payloads, _, err := s.Registry.DownloadBatch(fps)
	if err != nil {
		return nil, 0, err
	}
	for i := range payloads {
		payloads[i] = tampered
	}
	return payloads, int64(len(fps) * len(tampered)), nil
}

func TestDownloadIntegrityVerification(t *testing.T) {
	// A corrupt registry (wrong bytes under a fingerprint) must be caught
	// before anything reaches the cache or an index tree.
	root := vfs.New()
	if err := root.WriteFile("/bin", []byte("real content"), 0o755); err != nil {
		t.Fatal(err)
	}
	ix, _, err := index.Build("bad", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	fp := ix.Lookup("/bin").Fingerprint
	if err := reg.Upload(fp, []byte("real content")); err != nil {
		t.Fatal(err)
	}
	s := newStore(t, tamperedStore{reg})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "bad:v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadFile("/bin"); !errors.Is(err, ErrCorruptDownload) {
		t.Errorf("err = %v, want ErrCorruptDownload", err)
	}
	if got := metrics(s).Gauge("cache.objects"); got != 0 {
		t.Errorf("corrupt object entered the cache: %d", got)
	}
}

func TestReadAtFetchesOnlyNeededChunks(t *testing.T) {
	root := vfs.New()
	big := make([]byte, 20000)
	rand.New(rand.NewSource(9)).Read(big)
	if err := root.WriteFile("/model", big, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, pool, err := index.BuildPolicy("ai", "v1", imagefmt.Config{}, root, nil, index.FixedChunks(4096))
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	// Read bytes [5000, 9000): overlaps chunks 1 and 2 only.
	got, err := v.ReadAt("/model", 5000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big[5000:9000]) {
		t.Error("ranged read returned wrong bytes")
	}
	if objs := metrics(s).Counter("store.remote.objects"); objs != 2 {
		t.Errorf("remote objects = %d, want 2 (chunks 1 and 2)", objs)
	}
	// A later overlapping read reuses the cached chunks.
	got, err = v.ReadAt("/model", 4096, 4096)
	if err != nil || !bytes.Equal(got, big[4096:8192]) {
		t.Fatalf("second ranged read: %v", err)
	}
	if objs := metrics(s).Counter("store.remote.objects"); objs != 2 {
		t.Errorf("remote objects after overlap = %d, want 2", objs)
	}
	// Reading past EOF truncates.
	got, err = v.ReadAt("/model", 19000, 5000)
	if err != nil || !bytes.Equal(got, big[19000:]) {
		t.Errorf("tail read = %d bytes, %v", len(got), err)
	}
}

func TestReadAtFallsBackForUnchunkedFiles(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadAt("/etc/conf", 5, 2)
	if err != nil || string(got) != "80" {
		t.Errorf("ReadAt = %q, %v", got, err)
	}
	// The unchunked file materialized fully (one object).
	if objs := metrics(s).Counter("store.remote.objects"); objs != 1 {
		t.Errorf("remote objects = %d, want 1", objs)
	}
	if got := metrics(s).Counter("store.demand.misses"); got != 1 {
		t.Errorf("one ReadAt = %d demand misses, want exactly 1 (no double count when the store materializes)", got)
	}
	// Subsequent ReadAt of materialized file is local.
	if _, err := v.ReadAt("/etc/conf", 0, 4); err != nil {
		t.Fatal(err)
	}
	if objs := metrics(s).Counter("store.remote.objects"); objs != 1 {
		t.Errorf("re-read fetched again: %d", objs)
	}
}

func TestFileHandleStreamsChunks(t *testing.T) {
	root := vfs.New()
	big := make([]byte, 50000)
	rand.New(rand.NewSource(17)).Read(big)
	if err := root.WriteFile("/weights", big, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, pool, err := index.BuildPolicy("ai", "v1", imagefmt.Config{}, root, nil, index.FixedChunks(8192))
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "ai:v1")
	if err != nil {
		t.Fatal(err)
	}
	f, err := v.Open("/weights")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 50000 || f.Name() != "/weights" {
		t.Errorf("handle = %s/%d", f.Name(), f.Size())
	}
	if metrics(s).Counter("store.remote.objects") != 0 {
		t.Error("Open fetched data")
	}
	// Read the first 10 bytes: only chunk 0 crosses the wire.
	buf := make([]byte, 10)
	n, err := io.ReadFull(f, buf)
	if err != nil || n != 10 || !bytes.Equal(buf, big[:10]) {
		t.Fatalf("ReadFull = %d, %v", n, err)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != 1 {
		t.Errorf("remote objects after head read = %d, want 1", got)
	}
	// Seek to the tail and read: fetches only the last chunk.
	if _, err := f.Seek(-8, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 8)
	if _, err := io.ReadFull(f, tail); err != nil || !bytes.Equal(tail, big[49992:]) {
		t.Fatalf("tail read: %v", err)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != 2 {
		t.Errorf("remote objects after tail read = %d, want 2", got)
	}
	// Full sequential copy reproduces the file exactly.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := io.Copy(&out, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), big) {
		t.Error("streamed copy mismatch")
	}
	// Reading past EOF.
	if _, err := f.Read(buf); err != io.EOF {
		t.Errorf("read at EOF err = %v", err)
	}
	// Seek validation.
	if _, err := f.Seek(-1, io.SeekStart); err == nil {
		t.Error("negative seek accepted")
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Error("bad whence accepted")
	}
	// Opening a directory or symlink fails.
	if _, err := v.Open("/"); err == nil {
		t.Error("opened a directory")
	}
}

// A fault the level-1 cache serves — every read of a warm redeploy —
// allocates nothing whatever the depth of the path: the cache is probed
// with the placeholder's fingerprint written out on the stack, and a hit
// keeps the cache's own key. The cached content is linked into the node
// that held the placeholder (vfs.FS.Relink), and the materialized-already
// check reads that node, which the viewer found, in place. No path is
// re-split, re-joined or re-cleaned on the way, and the expected miss in
// the upper layer builds no error.
func TestCachedFaultAllocs(t *testing.T) {
	root := vfs.New()
	const p = "/usr/lib/python3/site-packages/pkg/module.py"
	if err := root.MkdirAll("/usr/lib/python3/site-packages/pkg", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteFile(p, []byte("print()\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, pool, err := index.Build("py", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "py:v1")
	if err != nil {
		t.Fatal(err)
	}
	tree := s.indexes["py:v1"].Tree
	placeholder := tree.Lookup(p).Content()
	if _, err := v.ReadFile(p); err != nil { // fills the cache
		t.Fatal(err)
	}
	const relink = 0 // putting the placeholder back, below, swaps it in place
	n := testing.AllocsPerRun(100, func() {
		if !tree.Relink(p, placeholder) {
			t.Fatal("placeholder not put back")
		}
		if got, err := v.ReadFile(p); err != nil || string(got) != "print()\n" {
			t.Fatalf("ReadFile = %q, %v", got, err)
		}
	})
	if n-relink > 0 {
		t.Errorf("cached fault: %v allocs per read, want 0", n-relink)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != 1 {
		t.Errorf("remote objects = %d, want 1: the cache must serve every re-fault", got)
	}

	// A cold fault takes the same leader as a batch or a readahead; the
	// single-object path through it must stay a constant handful too:
	// the fingerprint spelled for the flight, the cache entry and the
	// request, the flight and its channel, the leader's one-flight slice,
	// the registry's copy of the payload, and the cache's content, entry
	// and list element. Checking the payload against its fingerprint
	// writes no hex string.
	const clear = 2 // emptying the cache, below, lists what it evicts and makes a new map
	n = testing.AllocsPerRun(100, func() {
		s.ClearCache()
		if !tree.Relink(p, placeholder) {
			t.Fatal("placeholder not put back")
		}
		if got, err := v.ReadFile(p); err != nil || string(got) != "print()\n" {
			t.Fatalf("ReadFile = %q, %v", got, err)
		}
	})
	if n-relink-clear > 7 {
		t.Errorf("cold fault: %v allocs per read, want at most 7", n-relink-clear)
	}
}

// A fault whose node another container's fault materialized after the
// viewer found it is served from that node, not walked to again: it
// fetches nothing, looks nothing up in the cache and links nothing.
func TestFaultTakesTheNodeTheViewerFound(t *testing.T) {
	ix, reg := fixture(t)
	s := newStore(t, reg)
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	file := s.installed("web:v1").Tree.Lookup("/bin/app")
	stub, _ := index.StubOf(file)
	linked := vfs.NewContent([]byte("linked by another container"))
	if !s.installed("web:v1").Tree.Relink("/bin/app", linked) {
		t.Fatal("Relink reported false")
	}
	got, err := containerResolver(s, "web:v1").Resolve("web:v1", "/bin/app", file, stub)
	if err != nil || got != linked {
		t.Fatalf("Resolve: %v; served the content linked meanwhile: %v", err, got == linked)
	}
	m := metrics(s)
	if n := m.Counter("cache.hits") + m.Counter("cache.misses") + m.Counter("store.remote.objects"); n != 0 {
		t.Errorf("%d cache lookups and downloads, want 0", n)
	}
}

// The first read of a cached file of a pulled index builds the file's
// node and links the cached content over it: at most 1.2 allocations a
// read, over k files of one directory, each directory's one slot slice
// and origin on the path included. The cache is probed with the
// fingerprint written out on the stack. No map
// grows: the directory keeps its nodes by entry position. The file is its
// entry in the blob until then: no placeholder record and no content
// header is made for it.
func TestFirstReadsOfAPulledIndexAllocs(t *testing.T) {
	const k = 64
	root := vfs.New()
	if err := root.MkdirAll("/usr/lib/python3", 0o755); err != nil {
		t.Fatal(err)
	}
	var files []string
	for i := 0; i < k; i++ {
		p := fmt.Sprintf("/usr/lib/python3/module%02d.py", i)
		if err := root.WriteFile(p, []byte(p), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, p)
	}
	ix, pool, err := index.Build("py", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	img, err := ix.ToImage()
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	s := newStore(t, reg)
	least := ^uint64(0)
	for run := 0; run < 4; run++ { // the first fills the cache
		if err := s.InstallImage(img); err != nil {
			t.Fatal(err)
		}
		v, err := s.CreateContainer("c", "py:v1")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range files {
			if _, err := v.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if run > 0 {
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if err := s.RemoveContainer("c"); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveIndex("py:v1"); err != nil {
			t.Fatal(err)
		}
	}
	if perRead := float64(least) / k; perRead > 1.2 {
		t.Errorf("first reads of cached files: %.2f allocs per read, want at most 1.2", perRead)
	}
	if got := metrics(s).Counter("store.remote.objects"); got != k {
		t.Errorf("remote objects = %d, want %d: the cache must serve every read after the first run's", got, k)
	}
}
