package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path"
	"strings"
	"testing"
	"testing/quick"
)

func TestCleanAndSplit(t *testing.T) {
	tests := []struct {
		in    string
		clean string
	}{
		{"", "/"},
		{".", "/"},
		{"/", "/"},
		{"a", "/a"},
		{"/a/b/", "/a/b"},
		{"a/./b/../c", "/a/c"},
		{"//a//b", "/a/b"},
		{"/../a", "/a"},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			if got := Clean(tt.in); got != tt.clean {
				t.Errorf("Clean(%q) = %q, want %q", tt.in, got, tt.clean)
			}
		})
	}
}

func TestWriteAndReadFile(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/etc/nginx", 0o755); err != nil {
		t.Fatal(err)
	}
	want := []byte("server {}")
	if err := f.WriteFile("/etc/nginx/nginx.conf", want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadFile("/etc/nginx/nginx.conf")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("ReadFile = %q, want %q", got, want)
	}
	n, err := f.Stat("/etc/nginx/nginx.conf")
	if err != nil {
		t.Fatal(err)
	}
	if n.Type() != TypeRegular || n.Size() != int64(len(want)) || n.Mode() != 0o644 {
		t.Errorf("node = %v/%d/%o, want regular/%d/644", n.Type(), n.Size(), n.Mode(), len(want))
	}
}

func TestWriteFileMissingParent(t *testing.T) {
	f := New()
	err := f.WriteFile("/no/such/dir/file", nil, 0o644)
	if !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
}

func TestWriteFileOverDirectory(t *testing.T) {
	f := New()
	if err := f.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/d", nil, 0o644); !errors.Is(err, ErrIsDir) {
		t.Errorf("err = %v, want ErrIsDir", err)
	}
}

func TestMkdirErrors(t *testing.T) {
	f := New()
	if err := f.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir("/a", 0o755); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate mkdir err = %v, want ErrExist", err)
	}
	if err := f.Mkdir("/", 0o755); !errors.Is(err, ErrInvalid) {
		t.Errorf("mkdir / err = %v, want ErrInvalid", err)
	}
	if err := f.WriteFile("/a/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir("/a/f/sub", 0o755); !errors.Is(err, ErrNotDir) {
		t.Errorf("mkdir under file err = %v, want ErrNotDir", err)
	}
	if err := f.MkdirAll("/a/f/sub", 0o755); !errors.Is(err, ErrNotDir) {
		t.Errorf("mkdirall through file err = %v, want ErrNotDir", err)
	}
}

func TestMkdirAllIdempotent(t *testing.T) {
	f := New()
	for i := 0; i < 3; i++ {
		if err := f.MkdirAll("/a/b/c", 0o755); err != nil {
			t.Fatal(err)
		}
	}
	n, err := f.Stat("/a/b/c")
	if err != nil || !n.IsDir() {
		t.Fatalf("Stat(/a/b/c) = %v, %v; want dir", n, err)
	}
}

func TestSymlink(t *testing.T) {
	f := New()
	if err := f.Symlink("/usr/bin/python3", "/usr/bin/python"); err == nil {
		t.Fatal("symlink with missing parent should fail")
	}
	if err := f.MkdirAll("/usr/bin", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Symlink("/usr/bin/python3", "/usr/bin/python"); err != nil {
		t.Fatal(err)
	}
	n, err := f.Stat("/usr/bin/python")
	if err != nil {
		t.Fatal(err)
	}
	if n.Type() != TypeSymlink || n.Target() != "/usr/bin/python3" {
		t.Errorf("symlink = %v -> %q", n.Type(), n.Target())
	}
	if n.Size() != int64(len("/usr/bin/python3")) {
		t.Errorf("symlink size = %d", n.Size())
	}
	// Reading a symlink as a file is invalid.
	if _, err := f.ReadFile("/usr/bin/python"); !errors.Is(err, ErrInvalid) {
		t.Errorf("read symlink err = %v, want ErrInvalid", err)
	}
}

func TestHardLinkSharesContent(t *testing.T) {
	f := New()
	if err := f.WriteFile("/a", []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	na, _ := f.Stat("/a")
	if err := f.PutContent("/b", na.Content(), na.Mode()); err != nil {
		t.Fatal(err)
	}
	nb, _ := f.Stat("/b")
	if na.Content() != nb.Content() {
		t.Fatal("hard link does not share content")
	}
	if got := na.Content().Nlink(); got != 2 {
		t.Errorf("nlink = %d, want 2", got)
	}
	if err := f.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if got := nb.Content().Nlink(); got != 1 {
		t.Errorf("nlink after remove = %d, want 1", got)
	}
	got, err := f.ReadFile("/b")
	if err != nil || string(got) != "data" {
		t.Errorf("ReadFile(/b) = %q, %v", got, err)
	}
}

func TestPutContentReplacesAndCounts(t *testing.T) {
	f := New()
	c := NewContent([]byte("pool file"))
	if err := f.PutContent("/x", c, 0o644); err != nil {
		t.Fatal(err)
	}
	if c.Nlink() != 1 {
		t.Fatalf("nlink = %d, want 1", c.Nlink())
	}
	// Replacing with another link bumps the new and drops the old.
	c2 := NewContent([]byte("other"))
	if err := f.PutContent("/x", c2, 0o644); err != nil {
		t.Fatal(err)
	}
	if c.Nlink() != 0 || c2.Nlink() != 1 {
		t.Errorf("nlinks = %d,%d; want 0,1", c.Nlink(), c2.Nlink())
	}
}

func TestRemove(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/a/b/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("/a/b"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("remove non-empty dir err = %v, want ErrNotEmpty", err)
	}
	if err := f.Remove("/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("/a/b"); err != nil {
		t.Fatal(err)
	}
	if f.Exists("/a/b") {
		t.Error("directory still exists after Remove")
	}
	if err := f.Remove("/a/b"); !errors.Is(err, ErrNotExist) {
		t.Errorf("double remove err = %v, want ErrNotExist", err)
	}
}

func TestRemoveAll(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/a/b/c/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	if f.Exists("/a") {
		t.Error("subtree still exists")
	}
	if err := f.RemoveAll("/a"); err != nil {
		t.Errorf("RemoveAll on missing path = %v, want nil", err)
	}
	if err := f.RemoveAll("/no/parent/here"); err != nil {
		t.Errorf("RemoveAll with missing parent = %v, want nil", err)
	}
}

func TestRemoveAllRoot(t *testing.T) {
	f := New()
	if err := f.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveAll("/"); err != nil {
		t.Fatal(err)
	}
	if f.Root().NumChildren() != 0 {
		t.Error("root not emptied")
	}
}

func TestRemoveAllDropsLinkCounts(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	c := NewContent([]byte("shared"))
	if err := f.PutContent("/d/a", c, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.PutContent("/keep", c, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if c.Nlink() != 1 {
		t.Errorf("nlink = %d, want 1", c.Nlink())
	}
}

func TestWalkDeterministicOrder(t *testing.T) {
	f := New()
	paths := []string{"/b/x", "/a/z", "/a/y", "/c"}
	for _, p := range paths {
		dir := p[:strings.LastIndex(p, "/")]
		if dir != "" {
			if err := f.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.WriteFile(p, []byte(p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := f.Walk(func(p string, _ *Node) error {
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"/a", "/a/y", "/a/z", "/b", "/b/x", "/c"}
	if len(got) != len(want) {
		t.Fatalf("walk visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("walk[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestWalkAbort(t *testing.T) {
	f := New()
	for _, p := range []string{"/a", "/b", "/c"} {
		if err := f.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	count := 0
	err := f.Walk(func(string, *Node) error {
		count++
		if count == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || count != 2 {
		t.Errorf("walk abort: err=%v count=%d", err, count)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/d/f", []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Symlink("t", "/d/l"); err != nil {
		t.Fatal(err)
	}
	g := f.Clone()
	if err := g.WriteFile("/d/f", []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveAll("/d/l"); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadFile("/d/f")
	if err != nil || string(got) != "one" {
		t.Errorf("original mutated: %q, %v", got, err)
	}
	if !f.Exists("/d/l") {
		t.Error("original symlink removed by clone mutation")
	}
	// Content bytes are shared but wrappers are fresh.
	nf, _ := f.Stat("/d/f")
	if nf.Content().Nlink() != 1 {
		t.Errorf("original nlink = %d, want 1", nf.Content().Nlink())
	}
}

func TestStats(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/a/f1", make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/a/b/f2", make([]byte, 50), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Symlink("f1", "/a/l"); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Files != 2 || s.Dirs != 2 || s.Symlinks != 1 || s.Bytes != 150 {
		t.Errorf("stats = %+v", s)
	}
}

func TestIntermediateSymlinkNotFollowed(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/real", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Symlink("/real", "/alias"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/alias/x"); !errors.Is(err, ErrNotDir) {
		t.Errorf("stat through symlink err = %v, want ErrNotDir", err)
	}
}

func TestFileTypeString(t *testing.T) {
	tests := []struct {
		t    FileType
		want string
	}{
		{TypeRegular, "regular"},
		{TypeDir, "dir"},
		{TypeSymlink, "symlink"},
		{FileType(9), "FileType(9)"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.t, got, tt.want)
		}
	}
}

// randomTree builds a pseudorandom tree from a seed and returns the created
// file paths.
func randomTree(f *FS, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	dirs := []string{"/"}
	var files []string
	for i := 0; i < n; i++ {
		parent := dirs[rng.Intn(len(dirs))]
		name := fmt.Sprintf("n%03d", i)
		p := Clean(parent + "/" + name)
		switch rng.Intn(3) {
		case 0:
			if f.Mkdir(p, 0o755) == nil {
				dirs = append(dirs, p)
			}
		case 1:
			data := make([]byte, rng.Intn(64))
			rng.Read(data)
			if f.WriteFile(p, data, 0o644) == nil {
				files = append(files, p)
			}
		default:
			_ = f.Symlink("/target", p)
		}
	}
	return files
}

// Property: Walk visits every path exactly once, in strictly increasing
// order within each directory, and Stats agrees with a manual count.
func TestWalkVisitsAllOnceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		f := New()
		randomTree(f, seed, 200)
		seen := make(map[string]int)
		var files, dirs, links int
		err := f.Walk(func(p string, n *Node) error {
			seen[p]++
			switch n.Type() {
			case TypeRegular:
				files++
			case TypeDir:
				dirs++
			case TypeSymlink:
				links++
			}
			return nil
		})
		if err != nil {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		s := f.Stats()
		return s.Files == files && s.Dirs == dirs && s.Symlinks == links
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: cloning and then arbitrarily mutating the clone never changes
// the original tree's walk snapshot.
func TestClonePreservesOriginalProperty(t *testing.T) {
	snapshot := func(f *FS) string {
		var b strings.Builder
		_ = f.Walk(func(p string, n *Node) error {
			fmt.Fprintf(&b, "%s|%v|%d|%s\n", p, n.Type(), n.Size(), n.Target())
			return nil
		})
		return b.String()
	}
	prop := func(seed int64) bool {
		f := New()
		files := randomTree(f, seed, 100)
		before := snapshot(f)
		g := f.Clone()
		rng := rand.New(rand.NewSource(seed ^ 0x5ee5))
		for _, p := range files {
			switch rng.Intn(3) {
			case 0:
				_ = g.WriteFile(p, []byte("mutated"), 0o600)
			case 1:
				_ = g.Remove(p)
			default:
				_ = g.RemoveAll(p)
			}
		}
		return snapshot(f) == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: for any sequence of PutContent/Remove operations over a pool of
// shared contents, each content's nlink equals the number of live nodes
// pointing at it.
func TestNlinkInvariantProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := New()
		pool := make([]*Content, 8)
		for i := range pool {
			pool[i] = NewContent([]byte{byte(i)})
		}
		where := make(map[string]*Content)
		for op := 0; op < 300; op++ {
			p := fmt.Sprintf("/f%d", rng.Intn(20))
			if rng.Intn(2) == 0 {
				c := pool[rng.Intn(len(pool))]
				if f.PutContent(p, c, 0o644) == nil {
					where[p] = c
				}
			} else if f.Remove(p) == nil {
				delete(where, p)
			}
		}
		counts := make(map[*Content]int)
		for _, c := range where {
			counts[c]++
		}
		for _, c := range pool {
			if c.Nlink() != counts[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWalk(b *testing.B) {
	f := New()
	for d := 0; d < 20; d++ {
		dir := fmt.Sprintf("/d%02d", d)
		if err := f.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := f.WriteFile(fmt.Sprintf("%s/f%02d", dir, i), []byte("x"), 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		_ = f.Walk(func(string, *Node) error { n++; return nil })
		if n != 1020 {
			b.Fatalf("visited %d", n)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	f := New()
	if err := f.MkdirAll("/a/b/c/d/e", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := f.WriteFile("/a/b/c/d/e/target", []byte("x"), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Stat("/a/b/c/d/e/target"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRemoveAllRootReleasesLinks(t *testing.T) {
	f := New()
	c := NewContent([]byte("shared"))
	if err := f.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.PutContent("/d/a", c, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveAll("/"); err != nil {
		t.Fatal(err)
	}
	if c.Nlink() != 0 {
		t.Errorf("nlink after root RemoveAll = %d, want 0", c.Nlink())
	}
}

// FuzzClean pins the contract of the fast path: Clean is path.Clean of the
// rooted argument for every input, and a clean path cleans to itself
// (TestLookupAllocs shows that it does so without a copy).
func FuzzClean(f *testing.F) {
	for _, seed := range []string{
		"", ".", "..", "/", "//", "a", "/a", "a/", "/a/", "/a/b", "a//b", "/a/./b", "/a/../b",
		"../..", "/..", "/.", "/.a", "/..a", "/a/..", "/a/b/../../..", "/a/ /b", "/\x00", "/.wh..wh..opq",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p string) {
		got, want := Clean(p), path.Clean("/"+p)
		if got != want {
			t.Fatalf("Clean(%q) = %q, want %q", p, got, want)
		}
		if again := Clean(got); again != got {
			t.Fatalf("Clean(Clean(%q)) = %q, want %q", p, again, got)
		}
	})
}

func TestLookupAndRelink(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/d/f", []byte("placeholder"), 0o640); err != nil {
		t.Fatal(err)
	}
	if err := f.Symlink("/d", "/link"); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[string]bool{
		"/": true, "/d": true, "/d/f": true, "d/f": true, "/d/../d/f": true, "/link": true,
		"/x": false, "/d/x": false, "/d/f/x": false, "/link/f": false,
	} {
		n := f.Lookup(p)
		if (n != nil) != want || f.Exists(p) != want {
			t.Errorf("Lookup(%q) = %v, Exists = %v, want present = %v", p, n, f.Exists(p), want)
		}
		if st, err := f.Stat(p); (err == nil) != want || st != n {
			t.Errorf("Stat(%q) = %v, %v disagrees with Lookup %v", p, st, err, n)
		}
	}

	c := NewContent([]byte("real"))
	if !f.Relink("/d/f", c) {
		t.Fatal("Relink of a regular file reported false")
	}
	n := f.Lookup("/d/f")
	if n.Content() != c || n.Mode() != 0o640 || n.Name() != "f" || c.Nlink() != 1 {
		t.Errorf("after Relink: content %p (want %p), mode %v, name %q, nlink %d", n.Content(), c, n.Mode(), n.Name(), c.Nlink())
	}
	for _, p := range []string{"/", "/d", "/link", "/d/missing", "/missing/f", "/d/f/under"} {
		if f.Relink(p, c) {
			t.Errorf("Relink(%q) reported true", p)
		}
	}
	if c.Nlink() != 1 || snapshotOf(f) != "/d dir\n/d/f regular real\n/link symlink /d\n" {
		t.Errorf("refused Relinks changed the tree: nlink %d\n%s", c.Nlink(), snapshotOf(f))
	}
}

// Relink materializes a file in the node that holds it: a reader that
// found the node before goes on to the new content, both link counts
// move, a hard link elsewhere keeps the content it had, and the swap
// allocates nothing.
func TestRelinkInPlace(t *testing.T) {
	f := New()
	if err := f.WriteFile("/f", []byte("placeholder"), 0o600); err != nil {
		t.Fatal(err)
	}
	held := f.Lookup("/f")
	if err := f.PutContent("/g", held.Content(), held.Mode()); err != nil {
		t.Fatal(err)
	}
	old := held.Content()
	c := NewContent([]byte("real"))
	if !f.Relink("/f", c) {
		t.Fatal("Relink reported false")
	}
	if f.Lookup("/f") != held || held.Content() != c || held.Mode() != 0o600 {
		t.Errorf("Relink replaced the node or lost its mode: same node %v, content %q, mode %v",
			f.Lookup("/f") == held, held.Content().Data(), held.Mode())
	}
	if old.Nlink() != 1 || c.Nlink() != 1 || f.Lookup("/g").Content() != old {
		t.Errorf("link counts: old %d, new %d, want 1 and 1 with /g on the old content", old.Nlink(), c.Nlink())
	}
	if !f.Relink("/f", c) || c.Nlink() != 1 {
		t.Errorf("relinking the content a file holds: nlink %d, want 1", c.Nlink())
	}
	if a := testing.AllocsPerRun(100, func() {
		f.Relink("/f", old)
		f.Relink("/f", c)
	}); a != 0 {
		t.Errorf("Relink allocated %v times, want 0", a)
	}
	if old.Nlink() != 1 || c.Nlink() != 1 {
		t.Errorf("after swapping back and forth: nlinks %d and %d, want 1 and 1", old.Nlink(), c.Nlink())
	}
}

func snapshotOf(f *FS) string {
	var sb strings.Builder
	_ = f.Walk(func(p string, n *Node) error {
		fmt.Fprintf(&sb, "%s %v", p, n.Type())
		switch n.Type() {
		case TypeRegular:
			fmt.Fprintf(&sb, " %s", n.Content().Data())
		case TypeSymlink:
			fmt.Fprintf(&sb, " %s", n.Target())
		}
		sb.WriteByte('\n')
		return nil
	})
	return sb.String()
}

// A tree put together node by node is the tree the path-taking calls
// build.
func TestNodeConstructionMatchesPaths(t *testing.T) {
	byNode := New()
	d := byNode.Root().AddDir("d", 0o750|fs.ModeSetuid, 2)
	d.AddFile("f", []byte("data"), 0o644|fs.ModeDir)
	d.AddSymlink("l", "../x")
	d.AddDir("sub", 0o700, 0).AddFile("g", nil, 0o600)

	byPath := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(byPath.Mkdir("/d", 0o750|fs.ModeSetuid))
	must(byPath.WriteFile("/d/f", []byte("data"), 0o644|fs.ModeDir))
	must(byPath.Symlink("../x", "/d/l"))
	must(byPath.Mkdir("/d/sub", 0o700))
	must(byPath.WriteFile("/d/sub/g", nil, 0o600))

	if got, want := describe(byNode), describe(byPath); got != want {
		t.Errorf("node-built tree:\n%s\npath-built tree:\n%s", got, want)
	}
}

// A lookup of a clean path allocates nothing, hit or miss; only the error
// of a failing Stat does.
func TestLookupAllocs(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/usr/lib/python3/site-packages", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/usr/lib/python3/site-packages/module.py", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	const hit, miss = "/usr/lib/python3/site-packages/module.py", "/usr/lib/python3/nothing/here"
	for name, fn := range map[string]func(){
		"Stat hit":    func() { _, _ = f.Stat(hit) },
		"Exists hit":  func() { _ = f.Exists(hit) },
		"Exists miss": func() { _ = f.Exists(miss) },
		"Lookup miss": func() { _ = f.Lookup(miss) },
		"ReadFile":    func() { _, _ = f.ReadFile(hit) },
		"Clean":       func() { _ = Clean(hit) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}
