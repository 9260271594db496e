package viewer

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// fakeResolver serves from an in-memory pool and mimics the store's
// link-into-index behavior.
type fakeResolver struct {
	pool  map[hashing.Fingerprint][]byte
	tree  *vfs.FS
	calls int
	fail  bool
}

func (r *fakeResolver) Resolve(_, p string, _ *vfs.Node, stub index.Stub) (*vfs.Content, error) {
	r.calls++
	if r.fail {
		return nil, errors.New("registry unreachable")
	}
	data, ok := r.pool[stub.Fingerprint()]
	if !ok {
		return nil, errors.New("pool miss")
	}
	content := vfs.NewContent(data)
	if n, err := r.tree.Stat(p); err == nil {
		if err := r.tree.PutContent(p, content, n.Mode()); err != nil {
			return nil, err
		}
	}
	return content, nil
}

// ResolveRange serves the slice without materializing the file, the way
// the store serves a chunk span or a range request.
func (r *fakeResolver) ResolveRange(_, _ string, _ *vfs.Node, stub index.Stub, off, n int64) ([]byte, error) {
	r.calls++
	if r.fail {
		return nil, errors.New("registry unreachable")
	}
	data, ok := r.pool[stub.Fingerprint()]
	if !ok {
		return nil, errors.New("pool miss")
	}
	return sliceRange(data, off, n), nil
}

func setup(t *testing.T) (*Viewer, *fakeResolver) {
	t.Helper()
	root := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(root.MkdirAll("/app", 0o755))
	must(root.WriteFile("/app/bin", []byte("binary-bytes"), 0o755))
	must(root.WriteFile("/app/conf", []byte("k=v"), 0o600))
	must(root.Symlink("bin", "/app/bin-link"))

	ix, pool, err := index.Build("img", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ix.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	r := &fakeResolver{pool: pool, tree: tree}
	return New("img:v1", tree, r), r
}

func TestLazyReadPausesOnce(t *testing.T) {
	v, r := setup(t)
	got, err := v.ReadFile("/app/bin")
	if err != nil || string(got) != "binary-bytes" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if r.calls != 1 {
		t.Errorf("resolver calls = %d, want 1", r.calls)
	}
	// Materialized: no second pause.
	if _, err := v.ReadFile("/app/bin"); err != nil {
		t.Fatal(err)
	}
	if r.calls != 1 {
		t.Errorf("resolver calls after re-read = %d, want 1", r.calls)
	}
	// A ranged read of a lazy file is one fault, one resolver call,
	// whatever the resolver does to serve it.
	if _, err := v.ReadAt("/app/conf", 0, 1); err != nil {
		t.Fatal(err)
	}
	if r.calls != 2 {
		t.Errorf("after one ReadAt: resolver calls = %d, want 2", r.calls)
	}
}

func TestResolverFailurePropagates(t *testing.T) {
	v, r := setup(t)
	r.fail = true
	if _, err := v.ReadFile("/app/bin"); err == nil {
		t.Error("resolver failure swallowed")
	}
}

func TestModeAndModePreservedOnMaterialize(t *testing.T) {
	v, _ := setup(t)
	if _, err := v.ReadFile("/app/conf"); err != nil {
		t.Fatal(err)
	}
	info, err := v.Stat("/app/conf")
	if err != nil || info.Mode != 0o600 {
		t.Errorf("mode after materialize = %o, %v", info.Mode, err)
	}
}

func TestReadDirAndWalkSkipNothing(t *testing.T) {
	v, r := setup(t)
	names, err := v.ReadDir("/app")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "bin,bin-link,conf" {
		t.Errorf("ReadDir = %v", names)
	}
	var visited []string
	if err := v.Walk(func(p string, _ *vfs.Node) error {
		visited = append(visited, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(visited) != 4 {
		t.Errorf("walk visited %v", visited)
	}
	if r.calls != 0 {
		t.Error("metadata operations triggered fetches")
	}
}

func TestWriteAndCommitCycle(t *testing.T) {
	v, _ := setup(t)
	if err := v.Mkdir("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile("/data/out", []byte("result"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := v.Symlink("/data/out", "/data/latest"); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("/app/conf"); err != nil {
		t.Fatal(err)
	}
	diff := v.DiffTree()
	st := diff.Stats()
	// out + whiteout = 2 files, /data dir, symlink.
	if st.Files != 2 || st.Dirs != 2 || st.Symlinks != 1 {
		t.Errorf("diff stats = %+v", st)
	}
}

func TestRemoveAllSubtree(t *testing.T) {
	v, _ := setup(t)
	if err := v.RemoveAll("/app"); err != nil {
		t.Fatal(err)
	}
	if v.Exists("/app/bin") || v.Exists("/app") {
		t.Error("subtree visible after RemoveAll")
	}
}

func TestClosedViewerRejectsEverything(t *testing.T) {
	v, _ := setup(t)
	v.Close()
	if _, err := v.ReadFile("/app/bin"); !errors.Is(err, ErrStopped) {
		t.Errorf("read err = %v", err)
	}
	if err := v.WriteFile("/x", nil, 0o644); !errors.Is(err, ErrStopped) {
		t.Errorf("write err = %v", err)
	}
	if err := v.Mkdir("/d", 0o755); !errors.Is(err, ErrStopped) {
		t.Errorf("mkdir err = %v", err)
	}
	if err := v.Symlink("a", "/l"); !errors.Is(err, ErrStopped) {
		t.Errorf("symlink err = %v", err)
	}
	if err := v.Remove("/app/bin"); !errors.Is(err, ErrStopped) {
		t.Errorf("remove err = %v", err)
	}
	if err := v.RemoveAll("/app"); !errors.Is(err, ErrStopped) {
		t.Errorf("removeall err = %v", err)
	}
	if _, err := v.Stat("/app/bin"); !errors.Is(err, ErrStopped) {
		t.Errorf("stat err = %v", err)
	}
	if _, err := v.ReadDir("/app"); !errors.Is(err, ErrStopped) {
		t.Errorf("readdir err = %v", err)
	}
	if _, err := v.Readlink("/app/bin-link"); !errors.Is(err, ErrStopped) {
		t.Errorf("readlink err = %v", err)
	}
	if err := v.Walk(func(string, *vfs.Node) error { return nil }); !errors.Is(err, ErrStopped) {
		t.Errorf("walk err = %v", err)
	}
	if v.Exists("/app/bin") {
		t.Error("closed viewer reports existence")
	}
}

func TestReadAt(t *testing.T) {
	v, r := setup(t)
	// Lazy: the range is the resolver's to serve, and its bytes are the
	// slice of the file.
	got, err := v.ReadAt("/app/bin", 7, 5)
	if err != nil || string(got) != "bytes" {
		t.Errorf("ReadAt = %q, %v", got, err)
	}
	if got, err := v.ReadAt("/app/bin", 9999, 5); err != nil || len(got) != 0 {
		t.Errorf("lazy past-EOF = %q, %v", got, err)
	}
	if r.calls != 2 {
		t.Errorf("resolver calls = %d, want 2", r.calls)
	}
	// An empty range reads nothing and fetches nothing; a negative
	// offset is pread's EINVAL.
	for _, rg := range [][2]int64{{0, 0}, {3, -1}} {
		if got, err := v.ReadAt("/app/bin", rg[0], rg[1]); err != nil || got != nil {
			t.Errorf("ReadAt%v of a lazy file = %q, %v; want nothing", rg, got, err)
		}
	}
	negative := func(kind string) {
		var pe *fs.PathError
		if got, err := v.ReadAt("/app/bin", -1, 5); got != nil || !errors.As(err, &pe) || !errors.Is(err, vfs.ErrInvalid) || pe.Path != "/app/bin" {
			t.Errorf("ReadAt at a negative offset of a %s file = %q, %v; want a *fs.PathError wrapping vfs.ErrInvalid", kind, got, err)
		}
	}
	negative("lazy")
	if r.calls != 2 {
		t.Errorf("empty ranges reached the resolver: %d calls", r.calls)
	}
	// A failed ranged read is the read's error.
	r.fail = true
	if _, err := v.ReadAt("/app/bin", 0, 1); err == nil {
		t.Error("resolver failure swallowed")
	}
	r.fail = false
	// Materialized path: ReadAt slices locally.
	if _, err := v.ReadFile("/app/bin"); err != nil {
		t.Fatal(err)
	}
	calls := r.calls
	got, err = v.ReadAt("/app/bin", 0, 6)
	if err != nil || string(got) != "binary" {
		t.Errorf("materialized ReadAt = %q, %v", got, err)
	}
	if r.calls != calls {
		t.Error("materialized ReadAt refetched")
	}
	negative("materialized")
	// Out-of-range and upper-layer reads.
	if got, err := v.ReadAt("/app/bin", 9999, 5); err != nil || len(got) != 0 {
		t.Errorf("past-EOF = %q, %v", got, err)
	}
	if err := v.WriteFile("/own", []byte("container data"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = v.ReadAt("/own", 10, 4)
	if err != nil || string(got) != "data" {
		t.Errorf("upper ReadAt = %q, %v", got, err)
	}
	// Closed viewer.
	v.Close()
	if _, err := v.ReadAt("/app/bin", 0, 1); !errors.Is(err, ErrStopped) {
		t.Errorf("closed ReadAt err = %v", err)
	}
}

func TestFileHandleWithPlainResolver(t *testing.T) {
	v, _ := setup(t)
	f, err := v.Open("/app/bin")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len("binary-bytes")) || f.Name() != "/app/bin" {
		t.Errorf("handle = %s/%d", f.Name(), f.Size())
	}
	var out bytes.Buffer
	if _, err := io.Copy(&out, f); err != nil {
		t.Fatal(err)
	}
	if out.String() != "binary-bytes" {
		t.Errorf("copied %q", out.String())
	}
	// Seek current and end.
	if pos, err := f.Seek(-5, io.SeekEnd); err != nil || pos != int64(len("binary-bytes")-5) {
		t.Errorf("SeekEnd = %d, %v", pos, err)
	}
	if pos, err := f.Seek(1, io.SeekCurrent); err != nil || pos != int64(len("binary-bytes")-4) {
		t.Errorf("SeekCurrent = %d, %v", pos, err)
	}
	buf := make([]byte, 10)
	n, err := f.Read(buf)
	if n != 4 || (err != nil && err != io.EOF) {
		t.Errorf("tail read = %d, %v", n, err)
	}
	// ReadAt edge cases.
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := f.ReadAt(buf, f.Size()); err != io.EOF {
		t.Errorf("at-EOF err = %v", err)
	}
	if n, err := f.ReadAt(nil, 0); n != 0 || err != nil {
		t.Errorf("empty read = %d, %v", n, err)
	}
	// Open errors.
	if _, err := v.Open("/app"); err == nil {
		t.Error("opened directory")
	}
	if _, err := v.Open("/app/bin-link"); err == nil {
		t.Error("opened symlink")
	}
	if _, err := v.Open("/ghost"); err == nil {
		t.Error("opened missing file")
	}
}

func TestSliceRange(t *testing.T) {
	data := []byte("0123456789")
	tests := []struct {
		off, n int64
		want   string
	}{
		{0, 4, "0123"},
		{5, 100, "56789"},
		{9, 1, "9"},
		{10, 1, ""},
		{-1, 5, ""},
		{0, 0, ""},
		{0, -3, ""},
	}
	for _, tt := range tests {
		if got := string(sliceRange(data, tt.off, tt.n)); got != tt.want {
			t.Errorf("sliceRange(%d,%d) = %q, want %q", tt.off, tt.n, got, tt.want)
		}
	}
}

// parkingResolver is fakeResolver behind a gate: a Resolve of the path
// park announces itself on parked and waits for release; every other
// path resolves at once. It stands for a helper in the middle of a
// download.
type parkingResolver struct {
	mu      sync.Mutex // fakeResolver is not safe for concurrent use
	inner   *fakeResolver
	park    string
	parked  chan struct{}
	release chan struct{}
}

func (r *parkingResolver) wait(p string) {
	if p == r.park {
		r.parked <- struct{}{}
		<-r.release
	}
}

func (r *parkingResolver) Resolve(ref, p string, file *vfs.Node, stub index.Stub) (*vfs.Content, error) {
	r.wait(p)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inner.Resolve(ref, p, file, stub)
}

func (r *parkingResolver) ResolveRange(ref, p string, file *vfs.Node, stub index.Stub, off, n int64) ([]byte, error) {
	r.wait(p)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inner.ResolveRange(ref, p, file, stub, off, n)
}

func setupParked(t *testing.T, park string) (*Viewer, *parkingResolver) {
	t.Helper()
	v, inner := setup(t)
	r := &parkingResolver{inner: inner, park: park, parked: make(chan struct{}), release: make(chan struct{})}
	v.resolver = r
	return v, r
}

type readResult struct {
	data []byte
	err  error
}

// within fails the test if fn has not returned in time: a viewer that
// holds its lock across the helper shows up here as a hang.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return while another fault was parked in the resolver", what)
	}
}

// A fault parked in the helper (a download in flight) holds up nothing
// else in the container: a second thread reads, stats and faults on other
// files meanwhile.
func TestParkedFaultDoesNotBlockOtherPaths(t *testing.T) {
	v, r := setupParked(t, "/app/bin")
	first := make(chan readResult, 1)
	go func() {
		data, err := v.ReadFile("/app/bin")
		first <- readResult{data, err}
	}()
	<-r.parked

	within(t, "ReadFile of another path", func() {
		if got, err := v.ReadFile("/app/conf"); err != nil || string(got) != "k=v" {
			t.Errorf("ReadFile(/app/conf) = %q, %v", got, err)
		}
	})
	within(t, "Stat", func() {
		if info, err := v.Stat("/app/bin"); err != nil || !info.Lazy || info.Size != int64(len("binary-bytes")) {
			t.Errorf("Stat(/app/bin) = %+v, %v", info, err)
		}
	})
	within(t, "WriteFile", func() {
		if err := v.WriteFile("/app/new", []byte("w"), 0o644); err != nil {
			t.Error(err)
		}
	})
	r.mu.Lock()
	calls := r.inner.calls
	r.mu.Unlock()
	if calls != 1 {
		t.Errorf("resolver served %d faults with one parked, want 1 (the other path's)", calls)
	}

	close(r.release)
	if res := <-first; res.err != nil || string(res.data) != "binary-bytes" {
		t.Errorf("parked ReadFile = %q, %v", res.data, res.err)
	}
}

// Close while a fault is parked returns at once; the fault, released,
// ends in ErrStopped or in the data — never in a hang.
func TestCloseDuringParkedFault(t *testing.T) {
	v, r := setupParked(t, "/app/bin")
	first := make(chan readResult, 1)
	go func() {
		data, err := v.ReadFile("/app/bin")
		first <- readResult{data, err}
	}()
	<-r.parked
	within(t, "Close", v.Close)
	close(r.release)
	select {
	case res := <-first:
		if !errors.Is(res.err, ErrStopped) && (res.err != nil || string(res.data) != "binary-bytes") {
			t.Errorf("ReadFile across Close = %q, %v; want ErrStopped or the data", res.data, res.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ReadFile did not return after Close")
	}
}

// Reading a file that is already materialized, the common case by far,
// is a lookup and nothing else: the path is cleaned once, found once in
// each layer, and the content's first bytes say it is no placeholder.
func TestReadFileHitAllocs(t *testing.T) {
	v, _ := setup(t)
	if _, err := v.ReadFile("/app/bin"); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile("/app/own", []byte("container data"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/app/bin", "/app/own"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := v.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("ReadFile(%s) of a materialized file: %v allocs per run, want at most 2", p, n)
		}
	}
}

// linkingResolver is the store's cached fault: one content per
// fingerprint, linked over the placeholder in the shared tree.
type linkingResolver struct {
	tree     *vfs.FS
	contents map[hashing.Fingerprint]*vfs.Content
}

func (r *linkingResolver) Resolve(_, p string, _ *vfs.Node, stub index.Stub) (*vfs.Content, error) {
	c := r.contents[stub.Fingerprint()]
	r.tree.Relink(p, c)
	return c, nil
}

func (r *linkingResolver) ResolveRange(_, _ string, _ *vfs.Node, stub index.Stub, off, n int64) ([]byte, error) {
	return sliceRange(r.contents[stub.Fingerprint()].Data(), off, n), nil
}

// Two containers of one image fault the same file while a third stats
// and reads it. Each sees the placeholder or the file and never a mix of
// the two (a size read from one and the record from the other), and the
// shared tree ends with the file linked once and the placeholder not at
// all.
func TestSharedFaultRace(t *testing.T) {
	v, fake := setup(t)
	v.Close()
	r := &linkingResolver{tree: fake.tree, contents: make(map[hashing.Fingerprint]*vfs.Content)}
	for fp, data := range fake.pool {
		r.contents[fp] = vfs.NewContent(data)
	}
	const p, want = "/app/bin", "binary-bytes"
	placeholder := r.tree.Lookup(p).Content()
	a, b, c := New("img:v1", r.tree, r), New("img:v1", r.tree, r), New("img:v1", r.tree, r)
	for round := 0; round < 200; round++ {
		if !r.tree.Relink(p, placeholder) {
			t.Fatal("placeholder not put back")
		}
		var wg sync.WaitGroup
		for _, v := range []*Viewer{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := v.ReadFile(p); err != nil || string(got) != want {
					t.Errorf("ReadFile = %q, %v", got, err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stat until the file is materialized, to stat it mid-fault.
			for lazy := true; lazy; {
				info, err := c.Stat(p)
				if err != nil || info.Size != int64(len(want)) {
					t.Errorf("Stat = %+v, %v; want size %d", info, err, len(want))
					break
				}
				lazy = info.Lazy
			}
			if got, err := c.ReadFile(p); err != nil || string(got) != want {
				t.Errorf("ReadFile = %q, %v", got, err)
			}
		}()
		wg.Wait()
		if t.Failed() {
			break
		}
	}
	linked := r.tree.Lookup(p).Content()
	if string(linked.Data()) != want || linked.Nlink() != 1 || placeholder.Nlink() != 0 {
		t.Errorf("after the faults: tree holds %q linked %d times, placeholder linked %d times; want the file once, the placeholder never",
			linked.Data(), linked.Nlink(), placeholder.Nlink())
	}
}

// Containers of a pulled image come to a file whose node holds no
// content yet, only its entry in the blob: two fault it in, a third stats
// it until it is materialized, and a reader that wants its bytes renders
// the record meanwhile. Each sees the placeholder or the file, never a
// mix, and the tree ends with the file linked once and a record rendered
// before the link not linked at all.
func TestUnrenderedFileRace(t *testing.T) {
	const p, want = "/app/bin", "binary-bytes"
	root := vfs.New()
	if err := root.MkdirAll("/app", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteFile(p, []byte(want), 0o755); err != nil {
		t.Fatal(err)
	}
	ix, _, err := index.Build("img", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := index.EncodeBinary(ix)
	if err != nil {
		t.Fatal(err)
	}
	fp := ix.Lookup(p).Fingerprint
	record := string(index.Placeholder(fp, int64(len(want))))
	for round := 0; round < 200; round++ {
		m, err := index.DecodeMounted(string(blob))
		if err != nil {
			t.Fatal(err)
		}
		file := vfs.NewContent([]byte(want))
		r := &linkingResolver{tree: m.Tree, contents: map[hashing.Fingerprint]*vfs.Content{fp: file}}
		a, b, c := New("img:v1", r.tree, r), New("img:v1", r.tree, r), New("img:v1", r.tree, r)
		var rendered *vfs.Content
		var wg sync.WaitGroup
		for _, v := range []*Viewer{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := v.ReadFile(p); err != nil || string(got) != want {
					t.Errorf("ReadFile = %q, %v", got, err)
				}
			}()
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for lazy := true; lazy; {
				info, err := c.Stat(p)
				if err != nil || info.Size != int64(len(want)) {
					t.Errorf("Stat = %+v, %v; want size %d", info, err, len(want))
					break
				}
				lazy = info.Lazy
			}
		}()
		go func() {
			defer wg.Done()
			rendered = m.Tree.Lookup(p).Content()
			if got := string(rendered.Data()); got != record && got != want {
				t.Errorf("the node's bytes are %q: neither the record nor the file", got)
			}
		}()
		wg.Wait()
		if linked := m.Tree.Lookup(p).Content(); linked != file || file.Nlink() != 1 {
			t.Errorf("after the faults the tree holds %q linked %d times, want the file once", linked.Data(), linked.Nlink())
		}
		if rendered != file && rendered.Nlink() != 0 {
			t.Errorf("the record rendered before the link is linked %d times, want 0", rendered.Nlink())
		}
		if t.Failed() {
			break
		}
	}
}

func BenchmarkViewerReadFileHit(b *testing.B) {
	root := vfs.New()
	if err := root.MkdirAll("/usr/lib/python3/site-packages", 0o755); err != nil {
		b.Fatal(err)
	}
	var paths []string
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("/usr/lib/python3/site-packages/mod%03d.py", i)
		if err := root.WriteFile(p, []byte(p), 0o644); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, p)
	}
	ix, pool, err := index.Build("img", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := ix.ToTree()
	if err != nil {
		b.Fatal(err)
	}
	v := New("img:v1", tree, &fakeResolver{pool: pool, tree: tree})
	for _, p := range paths {
		if _, err := v.ReadFile(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.ReadFile(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
}
