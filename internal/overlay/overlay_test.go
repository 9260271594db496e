package overlay

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// lowerFixture builds a lower layer resembling a small image rootfs.
func lowerFixture(t *testing.T) *vfs.FS {
	t.Helper()
	f := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.MkdirAll("/etc", 0o755))
	must(f.MkdirAll("/bin", 0o755))
	must(f.WriteFile("/etc/conf", []byte("lower"), 0o644))
	must(f.WriteFile("/bin/sh", []byte("#!sh"), 0o755))
	must(f.Symlink("sh", "/bin/bash"))
	return f
}

func newMount(t *testing.T) *Mount {
	t.Helper()
	return squash(t, lowerFixture(t))
}

// squash mounts lowers (bottom first) the way a caller holding a stack of
// layers does: each is applied onto one tree, and the tree is attached.
// ApplyLayer spends the layer it is given, and the callers go on reading
// theirs, so each gets a clone.
func squash(tb testing.TB, lowers ...*vfs.FS) *Mount {
	tb.Helper()
	tree := vfs.New()
	for _, l := range lowers {
		tarstream.ApplyLayer(tree, l.Clone())
	}
	return AttachShared(tree)
}

// upperCounts is how many whiteout and opaque markers m's upper holds,
// and how many bytes its other regular files do.
func upperCounts(m *Mount) (whiteouts int, payload int64) {
	_ = m.upper.Walk(func(p string, n *vfs.Node) error {
		if IsMarkerName(path.Base(p)) {
			whiteouts++
		} else if n.Type() == vfs.TypeRegular {
			payload += n.Size()
		}
		return nil
	})
	return whiteouts, payload
}

func TestReadThroughToLower(t *testing.T) {
	m := newMount(t)
	got, err := m.ReadFile("/etc/conf")
	if err != nil || string(got) != "lower" {
		t.Errorf("ReadFile = %q, %v", got, err)
	}
	target, err := m.Readlink("/bin/bash")
	if err != nil || target != "sh" {
		t.Errorf("Readlink = %q, %v", target, err)
	}
	if _, err := m.ReadFile("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("missing file err = %v", err)
	}
	if _, err := m.ReadFile("/etc"); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("read dir err = %v", err)
	}
	if _, err := m.ReadFile("/bin/bash"); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("read symlink err = %v", err)
	}
	if _, err := m.Readlink("/etc/conf"); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("readlink file err = %v", err)
	}
}

func TestWriteShadowsLower(t *testing.T) {
	m := newMount(t)
	if err := m.WriteFile("/etc/conf", []byte("upper"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("/etc/conf")
	if err != nil || string(got) != "upper" {
		t.Errorf("ReadFile = %q, %v", got, err)
	}
	// The lower tree is untouched.
	low, err := m.squash.ReadFile("/etc/conf")
	if err != nil || string(low) != "lower" {
		t.Errorf("lower mutated: %q, %v", low, err)
	}
	// The upper diff contains exactly the one change.
	if whiteouts, payload := upperCounts(m); whiteouts != 0 || payload != int64(len("upper")) {
		t.Errorf("upper holds %d whiteouts, %d bytes", whiteouts, payload)
	}
}

// A write below a directory copies the directory up as the container
// sees it: its mode stays what it was, in the view and in the diff a
// commit applies.
func TestCopyUpKeepsDirectoryMode(t *testing.T) {
	lower := vfs.New()
	if err := lower.MkdirAll("/secret/inner", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := lower.WriteFile("/secret/a", []byte("a"), 0o600); err != nil {
		t.Fatal(err)
	}
	m := squash(t, lower)
	if err := m.WriteFile("/secret/b", []byte("b"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/secret/inner"); err != nil {
		t.Fatal(err)
	}
	n, err := m.Stat("/secret")
	if err != nil || n.Mode() != 0o700 {
		t.Fatalf("Stat(/secret) = %v, %v; want mode 700", n, err)
	}
	committed := m.squash.Clone()
	tarstream.ApplyLayer(committed, m.DiffTree())
	if n := committed.Lookup("/secret"); n == nil || n.Mode() != 0o700 {
		t.Errorf("committed /secret = %v; want mode 700", n)
	}
}

func TestWriteErrors(t *testing.T) {
	m := newMount(t)
	if err := m.WriteFile("/no/parent", nil, 0o644); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
	if err := m.WriteFile("/etc", nil, 0o644); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("err = %v, want ErrIsDir", err)
	}
	if err := m.WriteFile("/bin/sh/x", nil, 0o644); !errors.Is(err, vfs.ErrNotDir) {
		t.Errorf("err = %v, want ErrNotDir", err)
	}
}

func TestRemoveLowerCreatesWhiteout(t *testing.T) {
	m := newMount(t)
	if err := m.Remove("/etc/conf"); err != nil {
		t.Fatal(err)
	}
	if m.Exists("/etc/conf") {
		t.Error("file still visible after Remove")
	}
	if _, err := m.ReadFile("/etc/conf"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("err = %v", err)
	}
	if whiteouts, _ := upperCounts(m); whiteouts != 1 {
		t.Errorf("whiteouts = %d, want 1", whiteouts)
	}
	// Lower still intact.
	if !m.squash.Exists("/etc/conf") {
		t.Error("lower mutated")
	}
}

func TestRemoveUpperOnlyLeavesNoWhiteout(t *testing.T) {
	m := newMount(t)
	if err := m.WriteFile("/etc/new", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/etc/new"); err != nil {
		t.Fatal(err)
	}
	if m.Exists("/etc/new") {
		t.Error("still visible")
	}
	if got, _ := upperCounts(m); got != 0 {
		t.Errorf("whiteouts = %d, want 0 (no lower entry to hide)", got)
	}
}

func TestRemoveShadowedFileNeedsWhiteoutToo(t *testing.T) {
	m := newMount(t)
	if err := m.WriteFile("/etc/conf", []byte("upper"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/etc/conf"); err != nil {
		t.Fatal(err)
	}
	if m.Exists("/etc/conf") {
		t.Error("lower shows through after removing shadowing upper file")
	}
}

func TestRemoveNonEmptyDir(t *testing.T) {
	m := newMount(t)
	if err := m.Remove("/etc"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Errorf("err = %v, want ErrNotEmpty", err)
	}
}

func TestRemoveAllSubtree(t *testing.T) {
	m := newMount(t)
	if err := m.WriteFile("/etc/extra", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveAll("/etc"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/etc", "/etc/conf", "/etc/extra"} {
		if m.Exists(p) {
			t.Errorf("%s still visible", p)
		}
	}
	if err := m.RemoveAll("/etc"); err != nil {
		t.Errorf("RemoveAll of missing path = %v, want nil", err)
	}
	// /bin unaffected.
	if !m.Exists("/bin/sh") {
		t.Error("unrelated subtree removed")
	}
}

func TestWriteRevivesDeletedFile(t *testing.T) {
	m := newMount(t)
	if err := m.Remove("/etc/conf"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("/etc/conf", []byte("reborn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("/etc/conf")
	if err != nil || string(got) != "reborn" {
		t.Errorf("ReadFile = %q, %v", got, err)
	}
	if got, _ := upperCounts(m); got != 0 {
		t.Errorf("whiteouts = %d, want 0 after revival", got)
	}
}

func TestMkdirOverDeletedLowerDirIsOpaque(t *testing.T) {
	m := newMount(t)
	if err := m.RemoveAll("/etc"); err != nil {
		t.Fatal(err)
	}
	if err := m.Mkdir("/etc", 0o755); err != nil {
		t.Fatal(err)
	}
	if m.Exists("/etc/conf") {
		t.Error("stale lower content visible in re-created directory")
	}
	names, err := m.ReadDir("/etc")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("ReadDir = %v, want empty", names)
	}
}

func TestMkdirErrors(t *testing.T) {
	m := newMount(t)
	if err := m.Mkdir("/etc", 0o755); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("err = %v, want ErrExist", err)
	}
	if err := m.Mkdir("/no/parent", 0o755); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
}

func TestReadDirMergesLayers(t *testing.T) {
	m := newMount(t)
	if err := m.WriteFile("/etc/upper-only", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/etc/conf"); err != nil {
		t.Fatal(err)
	}
	names, err := m.ReadDir("/etc")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"upper-only"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("ReadDir = %v, want %v", names, want)
	}
	names, err = m.ReadDir("/bin")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "bash,sh" {
		t.Errorf("ReadDir(/bin) = %v", names)
	}
	if _, err := m.ReadDir("/bin/sh"); !errors.Is(err, vfs.ErrNotDir) {
		t.Errorf("readdir on file err = %v", err)
	}
}

func TestUpperFileShadowsLowerDir(t *testing.T) {
	lower := vfs.New()
	if err := lower.MkdirAll("/opt/app", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := lower.WriteFile("/opt/app/bin", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := squash(t, lower)
	if err := m.RemoveAll("/opt/app"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("/opt/app", []byte("now a file"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := m.Stat("/opt/app")
	if err != nil || n.Type() != vfs.TypeRegular {
		t.Fatalf("Stat = %v, %v; want regular file", n, err)
	}
	if m.Exists("/opt/app/bin") {
		t.Error("child of shadowed dir still visible")
	}
	names, err := m.ReadDir("/opt")
	if err != nil || strings.Join(names, ",") != "app" {
		t.Errorf("ReadDir(/opt) = %v, %v", names, err)
	}
}

func TestMultipleLowerLayers(t *testing.T) {
	l1 := vfs.New()
	if err := l1.MkdirAll("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l1.WriteFile("/a/f", []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l1.WriteFile("/a/gone", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := vfs.New()
	if err := l2.MkdirAll("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l2.WriteFile("/a/f", []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l2.WriteFile("/a/.wh.gone", nil, 0); err != nil {
		t.Fatal(err)
	}
	m := squash(t, l1, l2)
	got, err := m.ReadFile("/a/f")
	if err != nil || string(got) != "v2" {
		t.Errorf("upper layer did not win: %q, %v", got, err)
	}
	if m.Exists("/a/gone") {
		t.Error("lower whiteout not applied while squashing")
	}
}

func TestMaterializeAndWalk(t *testing.T) {
	m := newMount(t)
	if err := m.WriteFile("/etc/conf", []byte("upper"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/bin/bash"); err != nil {
		t.Fatal(err)
	}
	flat, err := materialize(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := flat.ReadFile("/etc/conf")
	if err != nil || string(got) != "upper" {
		t.Errorf("materialized conf = %q, %v", got, err)
	}
	if flat.Exists("/bin/bash") {
		t.Error("removed symlink materialized")
	}
	var paths []string
	if err := m.Walk(func(p string, _ *vfs.Node) error {
		paths = append(paths, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if IsMarkerName(path.Base(p)) {
			t.Errorf("walk leaked marker %s", p)
		}
	}
}

func TestCommitRoundTrip(t *testing.T) {
	// The upper diff, applied over the lower stack, equals the union view —
	// the invariant behind "docker commit" and the Gear commit path.
	m := newMount(t)
	if err := m.WriteFile("/etc/conf", []byte("changed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("/etc/new", []byte("n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/bin/bash"); err != nil {
		t.Fatal(err)
	}

	base := m.squash.Clone()
	tarstream.ApplyLayer(base, m.DiffTree())
	flat, err := materialize(m)
	if err != nil {
		t.Fatal(err)
	}
	snapA := snapshot(base)
	snapB := snapshot(flat)
	if snapA != snapB {
		t.Errorf("apply(diff) != materialized view:\n--- apply\n%s--- view\n%s", snapA, snapB)
	}
}

// A stopped container's diff, mounted again over its image, is the
// container as it was.
func TestNewWithUpperRestoresState(t *testing.T) {
	m := newMount(t)
	if err := m.WriteFile("/etc/conf", []byte("persisted"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := newMount(t)
	m2.upper = m.DiffTree()
	got, err := m2.ReadFile("/etc/conf")
	if err != nil || string(got) != "persisted" {
		t.Errorf("remounted upper lost data: %q, %v", got, err)
	}
}

// materialize flattens the union view into a standalone tree: the root
// filesystem a container process sees.
func materialize(m *Mount) (*vfs.FS, error) {
	out := vfs.New()
	err := m.Walk(func(p string, n *vfs.Node) error {
		switch n.Type() {
		case vfs.TypeDir:
			return out.MkdirAll(p, n.Mode())
		case vfs.TypeRegular:
			return out.PutContent(p, n.Content(), n.Mode())
		case vfs.TypeSymlink:
			return out.Symlink(n.Target(), p)
		default:
			return fmt.Errorf("materialize %s: %w", p, vfs.ErrInvalid)
		}
	})
	return out, err
}

func snapshot(f *vfs.FS) string {
	var sb strings.Builder
	_ = f.Walk(func(p string, n *vfs.Node) error {
		var body string
		if n.Type() == vfs.TypeRegular {
			body = string(n.Content().Data())
		}
		fmt.Fprintf(&sb, "%s %v %o %q %q\n", p, n.Type(), n.Mode(), n.Target(), body)
		return nil
	})
	return sb.String()
}

func mountSnapshot(m *Mount) string {
	var sb strings.Builder
	_ = m.Walk(func(p string, n *vfs.Node) error {
		var body string
		if n.Type() == vfs.TypeRegular {
			body = string(n.Content().Data())
		}
		fmt.Fprintf(&sb, "%s %v %o %q %q\n", p, n.Type(), n.Mode(), n.Target(), body)
		return nil
	})
	return sb.String()
}

// Property: a random series of mount mutations keeps three invariants:
// (1) the union view never shows marker names, (2) Materialize equals
// ApplyLayer(lower, diff) in every entry's type, mode, content and
// target, and (3) the lower tree is never mutated —
// and after every one of them the one-descent lookup answers every path
// as the path-string reference does (agreesWithReference).
func TestMountInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lower := vfs.New()
		buildRandomTree(lower, rng, 25)
		lowerSnap := snapshot(lower)

		m := squash(t, lower)
		agrees := true
		applyRandomMountOps(m, rng, 40, func() { agrees = agrees && agreesWithReference(t, m) })
		if !agrees {
			return false
		}

		// (1) no markers visible
		bad := false
		_ = m.Walk(func(p string, _ *vfs.Node) error {
			if IsMarkerName(path.Base(p)) {
				bad = true
			}
			return nil
		})
		if bad {
			return false
		}
		// (2) commit round trip
		base := m.squash.Clone()
		tarstream.ApplyLayer(base, m.DiffTree())
		flat, err := materialize(m)
		if err != nil {
			return false
		}
		if snapshot(base) != snapshot(flat) {
			return false
		}
		// (3) lower untouched
		return snapshot(lower) == lowerSnap
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// dirModes are the directory modes the random trees and mutations use.
var dirModes = []fs.FileMode{0o700, 0o750, 0o755}

func buildRandomTree(f *vfs.FS, rng *rand.Rand, n int) {
	dirs := []string{"/"}
	for i := 0; i < n; i++ {
		d := dirs[rng.Intn(len(dirs))]
		name := fmt.Sprintf("e%02d", i)
		p := path.Join(d, name)
		switch rng.Intn(3) {
		case 0:
			if f.Mkdir(p, dirModes[rng.Intn(len(dirModes))]) == nil {
				dirs = append(dirs, p)
			}
		case 1:
			data := make([]byte, rng.Intn(20))
			rng.Read(data)
			_ = f.WriteFile(p, data, 0o644)
		default:
			_ = f.Symlink("/tgt", p)
		}
	}
}

// applyRandomMountOps mutates m n times at random, calling after (if not
// nil) behind every mutation.
func applyRandomMountOps(m *Mount, rng *rand.Rand, n int, after func()) {
	var all []string
	refresh := func() {
		all = []string{"/"}
		_ = m.Walk(func(p string, _ *vfs.Node) error {
			all = append(all, p)
			return nil
		})
	}
	for i := 0; i < n; i++ {
		refresh()
		target := all[rng.Intn(len(all))]
		mode := dirModes[rng.Intn(len(dirModes))]
		switch rng.Intn(6) {
		case 0:
			_ = m.WriteFile(path.Join(target, fmt.Sprintf("w%02d", i)), []byte{byte(i)}, 0o644)
		case 1:
			_ = m.Mkdir(path.Join(target, fmt.Sprintf("d%02d", i)), mode)
		case 2:
			_ = m.Symlink("/x", path.Join(target, fmt.Sprintf("s%02d", i)))
		case 3:
			if target != "/" {
				_ = m.Remove(target)
			}
		case 4:
			// A directory deleted and made again, at a mode of its own:
			// over a lower directory that is an opaque one.
			if n, err := m.Stat(target); err == nil && n.IsDir() && target != "/" {
				_ = m.RemoveAll(target)
				_ = m.Mkdir(target, mode)
			}
		default:
			if target != "/" {
				_ = m.RemoveAll(target)
			}
		}
		if after != nil {
			after()
		}
	}
}

// Property: remounting the diff over the same lower stack reproduces the
// identical union view (container stop/start persistence).
func TestRemountProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lower := vfs.New()
		buildRandomTree(lower, rng, 20)
		m := squash(t, lower)
		applyRandomMountOps(m, rng, 30, nil)
		before := mountSnapshot(m)

		m2 := squash(t, lower)
		m2.upper = m.DiffTree()
		return mountSnapshot(m2) == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionStat(b *testing.B) {
	lower := vfs.New()
	if err := lower.MkdirAll("/usr/lib/app", 0o755); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := lower.WriteFile(fmt.Sprintf("/usr/lib/app/f%03d", i), []byte("x"), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	m := AttachShared(lower)
	if err := m.WriteFile("/usr/lib/app/f000", []byte("upper"), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Stat(fmt.Sprintf("/usr/lib/app/f%03d", i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- the path-string lookup, kept as the reference ----
//
// refStat, refHidden and refWhiteoutPath are Mount.Stat, hiddenByWhiteout
// and whiteoutPath as they were before the lookup became one descent of
// the upper tree: every question is put to the upper as a path of its
// own (path.Join, then a walk from the root). They are slow and
// obviously right, which is what a reference is for.

func refWhiteoutPath(p string) string {
	dir, name := path.Split(path.Clean("/" + p))
	return path.Join(path.Clean("/"+dir), tarstream.WhiteoutPrefix+name)
}

func refHidden(m *Mount, p string) bool {
	var parts []string
	if p = vfs.Clean(p); p != "/" {
		parts = strings.Split(p[1:], "/")
	}
	cur := "/"
	for i := 0; i <= len(parts); i++ {
		if i > 0 {
			probe := path.Join(cur, parts[i-1])
			if m.upper.Exists(refWhiteoutPath(probe)) {
				return true
			}
			cur = probe
		}
		if i == len(parts) {
			break
		}
		// cur is now an ancestor directory of p (the root when i == 0).
		if i > 0 {
			if n, err := m.upper.Stat(cur); err == nil && !n.IsDir() {
				return true
			}
		}
		if m.upper.Exists(path.Join(cur, tarstream.OpaqueMarker)) {
			rest := path.Join(append([]string{cur}, parts[i:]...)...)
			if !m.upper.Exists(rest) {
				return true
			}
		}
	}
	return false
}

func refStat(m *Mount, p string) (*vfs.Node, error) {
	p = path.Clean("/" + p)
	if n, err := m.upper.Stat(p); err == nil {
		if IsMarkerName(path.Base(p)) {
			return nil, fmt.Errorf("overlay: stat %s: %w", p, vfs.ErrNotExist)
		}
		return n, nil
	}
	if m.upper.Exists(refWhiteoutPath(p)) || refHidden(m, p) {
		return nil, fmt.Errorf("overlay: stat %s: %w", p, vfs.ErrNotExist)
	}
	n, err := m.squash.Stat(p)
	if err != nil {
		return nil, fmt.Errorf("overlay: stat %s: %w", p, vfs.ErrNotExist)
	}
	return n, nil
}

// probePaths is every path in the upper and in the lower tree of m, and
// around each the paths where the layers' bookkeeping could show: its
// whiteout, the opaque marker and a child below it, and spellings of it
// that are not clean.
func probePaths(m *Mount) []string {
	seen := map[string]bool{}
	var out []string
	add := func(ps ...string) {
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	add("", "/", ".", "..", "/..", "/"+tarstream.OpaqueMarker, "/"+tarstream.WhiteoutPrefix, "/nowhere/at/all")
	visit := func(p string, _ *vfs.Node) error {
		add(p, refWhiteoutPath(p), p+"/"+tarstream.OpaqueMarker, p+"/below", p+"/below/deeper",
			p+"/.", p+"/../"+path.Base(p), p[1:])
		return nil
	}
	_ = m.upper.Walk(visit)
	_ = m.squash.Walk(visit)
	return out
}

// agreesWithReference holds Stat, Exists and the hidden verdict against
// the reference for every probe path of m: the same node (so the same
// type and content), or the same error — class and text.
func agreesWithReference(t *testing.T, m *Mount) bool {
	t.Helper()
	ok := true
	for _, p := range probePaths(m) {
		got, gerr := m.Stat(p)
		want, werr := refStat(m, p)
		switch {
		case got != want:
			t.Errorf("Stat(%q) = node %p %v, reference %p %v", p, got, gerr, want, werr)
			ok = false
		case (gerr == nil) != (werr == nil),
			gerr != nil && (gerr.Error() != werr.Error() || errors.Is(gerr, vfs.ErrNotExist) != errors.Is(werr, vfs.ErrNotExist)):
			t.Errorf("Stat(%q) error %v, reference %v", p, gerr, werr)
			ok = false
		}
		if m.Exists(p) != (werr == nil) {
			t.Errorf("Exists(%q) = %v, reference Stat error %v", p, m.Exists(p), werr)
			ok = false
		}
		if _, hidden := m.upperAt(vfs.Clean(p)); hidden != refHidden(m, p) {
			t.Errorf("upper hides lower %q = %v, reference %v", p, hidden, refHidden(m, p))
			ok = false
		}
	}
	return ok
}

// The corners the random walk reaches rarely, each held against the
// reference: "rm -rf /" (root opaque) and names revived under it, a
// deleted directory made again (opaque) and refilled, an upper file over
// a lower directory, and an upper tree that is not what Mount itself
// writes (both a node and its whiteout, a marker that is a directory).
func TestStatMatchesReferenceCorners(t *testing.T) {
	check := func(m *Mount, step string) {
		t.Helper()
		if !agreesWithReference(t, m) {
			t.Fatalf("after %s", step)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	m := newMount(t)
	check(m, "mount")

	must(m.RemoveAll("/etc"))
	check(m, "rm -r /etc")
	must(m.Mkdir("/etc", 0o755))
	check(m, "mkdir /etc over the deleted one")
	must(m.WriteFile("/etc/conf", []byte("revived"), 0o644))
	check(m, "revive /etc/conf")

	must(m.RemoveAll("/bin"))
	must(m.WriteFile("/bin", []byte("a file now"), 0o644))
	check(m, "upper file over lower dir /bin")

	must(m.RemoveAll("/"))
	check(m, "rm -rf /")
	must(m.Mkdir("/etc", 0o755))
	must(m.WriteFile("/etc/new", []byte("n"), 0o644))
	check(m, "names revived under the opaque root")

	// An upper tree nobody's Remove wrote.
	lower := lowerFixture(t)
	upper := vfs.New()
	must(upper.MkdirAll("/bin", 0o755))
	must(upper.WriteFile("/"+tarstream.WhiteoutPrefix+"bin", nil, 0))
	must(upper.WriteFile("/bin/tool", []byte("upper tool"), 0o755))
	must(upper.MkdirAll("/etc/"+tarstream.OpaqueMarker, 0o755))
	must(upper.Symlink("/elsewhere", "/var"))
	m = &Mount{squash: lower, upper: upper}
	check(m, "a hand-made upper")
}

// ---- allocation budgets ----

func statFixture(tb testing.TB) (lower *vfs.FS, paths []string) {
	tb.Helper()
	lower = vfs.New()
	if err := lower.MkdirAll("/usr/lib/python3/site-packages", 0o755); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("/usr/lib/python3/site-packages/mod%03d.py", i)
		if err := lower.WriteFile(p, []byte("x"), 0o644); err != nil {
			tb.Fatal(err)
		}
		paths = append(paths, p)
	}
	return lower, paths
}

// populate gives m an upper with entries in every directory on the way
// to the fixture's files: a written sibling, a whiteout, a revived name.
func populate(tb testing.TB, m *Mount, paths []string) {
	tb.Helper()
	for _, err := range []error{
		m.WriteFile("/usr/lib/python3/site-packages/local.py", []byte("upper"), 0o644),
		m.WriteFile("/usr/lib/python3/notes", []byte("upper"), 0o644),
		m.WriteFile("/usr/lib/extra", []byte("upper"), 0o644),
		m.Remove(paths[0]),
		m.Remove(paths[1]),
		m.WriteFile(paths[1], []byte("revived"), 0o644),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// A lookup that resolves allocates nothing under an empty upper, where
// the descent ends at the root, and nothing under a populated one either,
// where every directory on the way is asked for a marker, a whiteout and
// the name: the whiteout's name is put together on the stack (a name
// over 28 bytes would cost its directory one small allocation).
func TestMountStatAllocs(t *testing.T) {
	lower, paths := statFixture(t)
	empty := AttachShared(lower)
	populated := AttachShared(lower)
	populate(t, populated, paths)
	for name, m := range map[string]*Mount{"empty upper": empty, "populated upper": populated} {
		for _, p := range []string{paths[50], paths[1], "/usr/lib/python3"} {
			if n := testing.AllocsPerRun(100, func() {
				if _, err := m.Stat(p); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: Stat(%s): %v allocs per run, want 0", name, p, n)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _ = m.Exists("/usr/lib/python3/none") }); n != 0 {
			t.Errorf("%s: Exists of a missing path: %v allocs per run, want 0", name, n)
		}
	}
}

func BenchmarkMountStat(b *testing.B) {
	lower, paths := statFixture(b)
	for _, upper := range []string{"empty", "populated"} {
		m := AttachShared(lower)
		if upper == "populated" {
			populate(b, m, paths)
		}
		b.Run(upper+"_upper", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Stat(paths[2+i%98]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
