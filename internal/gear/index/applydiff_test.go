package index

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path"
	"sort"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/overlay"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// baseIndex builds a small index to commit against.
func baseIndex(t *testing.T) *Index {
	t.Helper()
	root := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(root.MkdirAll("/etc/app", 0o755))
	must(root.MkdirAll("/data", 0o755))
	must(root.WriteFile("/etc/app/conf", []byte("v1 conf"), 0o644))
	must(root.WriteFile("/data/seed", []byte("seed"), 0o644))
	must(root.Symlink("conf", "/etc/app/conf-link"))
	ix, _, err := Build("app", "v1", imagefmt.Config{Env: []string{"E=1"}}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestApplyDiffAddsModifiesDeletes(t *testing.T) {
	ix := baseIndex(t)
	diff := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Modify an existing file, add a new nested file, delete another,
	// add a symlink.
	must(diff.MkdirAll("/etc/app", 0o755))
	must(diff.WriteFile("/etc/app/conf", []byte("v2 conf"), 0o600))
	must(diff.MkdirAll("/var/log/app", 0o755))
	must(diff.WriteFile("/var/log/app/out", []byte("log line"), 0o644))
	must(diff.MkdirAll("/data", 0o755))
	must(diff.WriteFile("/data/.wh.seed", nil, 0))
	must(diff.Symlink("/var/log/app/out", "/latest-log"))

	newIx, newFiles, err := ApplyDiff(ix, "app", "v2", diff, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := newIx.Validate(); err != nil {
		t.Fatal(err)
	}
	if newIx.Reference() != "app:v2" {
		t.Errorf("ref = %s", newIx.Reference())
	}
	// Config carried over.
	if len(newIx.Config.Env) != 1 || newIx.Config.Env[0] != "E=1" {
		t.Error("config lost")
	}
	// Modified file: new fingerprint, new mode.
	conf := newIx.Lookup("/etc/app/conf")
	if conf == nil || string(newFiles[conf.Fingerprint]) != "v2 conf" || conf.Mode != 0o600 {
		t.Errorf("modified conf entry = %+v", conf)
	}
	if conf.Fingerprint == ix.Lookup("/etc/app/conf").Fingerprint {
		t.Error("modified file kept its old fingerprint")
	}
	// Added file under new directories.
	if newIx.Lookup("/var/log/app/out") == nil {
		t.Error("added file missing")
	}
	// Deleted file.
	if newIx.Lookup("/data/seed") != nil {
		t.Error("whiteouted file survived")
	}
	if newIx.Lookup("/data") == nil {
		t.Error("parent of whiteouted file vanished")
	}
	// Symlink added.
	if e := newIx.Lookup("/latest-log"); e == nil || e.Target != "/var/log/app/out" {
		t.Errorf("symlink = %+v", e)
	}
	// Untouched entries keep their fingerprints.
	if newIx.Lookup("/etc/app/conf-link") == nil {
		t.Error("untouched symlink lost")
	}
	// newFiles contains exactly the two new contents.
	if len(newFiles) != 2 {
		t.Errorf("new files = %d, want 2", len(newFiles))
	}
	// The old index is unchanged.
	if ix.Lookup("/var/log") != nil || ix.Lookup("/data/seed") == nil {
		t.Error("ApplyDiff mutated the source index")
	}
}

func TestApplyDiffOpaqueDirectory(t *testing.T) {
	ix := baseIndex(t)
	diff := vfs.New()
	if err := diff.MkdirAll("/etc/app", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := diff.WriteFile("/etc/app/"+tarstream.OpaqueMarker, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := diff.WriteFile("/etc/app/fresh", []byte("only me"), 0o644); err != nil {
		t.Fatal(err)
	}
	newIx, _, err := ApplyDiff(ix, "app", "v2", diff, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newIx.Lookup("/etc/app/conf") != nil || newIx.Lookup("/etc/app/conf-link") != nil {
		t.Error("opaque directory kept old entries")
	}
	if newIx.Lookup("/etc/app/fresh") == nil {
		t.Error("opaque directory lost this layer's entry")
	}
}

func TestApplyDiffReplaceDirWithFile(t *testing.T) {
	ix := baseIndex(t)
	diff := vfs.New()
	if err := diff.WriteFile("/.wh.data", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := diff.WriteFile("/data", []byte("now a file"), 0o644); err != nil {
		t.Fatal(err)
	}
	newIx, files, err := ApplyDiff(ix, "app", "v2", diff, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newIx.Lookup("/data")
	if e == nil || e.Type != vfs.TypeRegular {
		t.Fatalf("entry = %+v, want regular file", e)
	}
	if string(files[e.Fingerprint]) != "now a file" {
		t.Error("replacement content wrong")
	}
	if newIx.Lookup("/data/seed") != nil {
		t.Error("child of replaced directory survived")
	}
}

func TestApplyDiffDeduplicatesNewFiles(t *testing.T) {
	ix := baseIndex(t)
	diff := vfs.New()
	if err := diff.WriteFile("/a", []byte("same bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := diff.WriteFile("/b", []byte("same bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	newIx, files, err := ApplyDiff(ix, "app", "v2", diff, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("new files = %d, want 1 (deduped)", len(files))
	}
	if newIx.Lookup("/a").Fingerprint != newIx.Lookup("/b").Fingerprint {
		t.Error("identical new files got different fingerprints")
	}
}

// ApplyDiff applies a diff as the engine it replaced did: for random
// indexes (directories at several modes, chunked files among them) and
// random container sessions over them — the diff a viewer's overlay
// mount leaves, opaque re-creations at new modes and files that repeat
// chunked contents included — it returns the index applyDiffMutable
// returns, to the byte, and the same new files.
func TestApplyDiffMatchesMutableOracle(t *testing.T) {
	modes := []fs.FileMode{0o700, 0o750, 0o755}
	opaque := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := randomRoot(rng, 30)
		root.Root().SetMode(modes[rng.Intn(len(modes))])
		var contents [][]byte
		_ = root.Walk(func(_ string, n *vfs.Node) error {
			switch n.Type() {
			case vfs.TypeDir:
				n.SetMode(modes[rng.Intn(len(modes))])
			case vfs.TypeRegular:
				contents = append(contents, n.Content().Data())
			}
			return nil
		})
		contents = append(contents, []byte("fresh"), nil)
		pol := ChunkPolicy{}
		if seed%2 == 0 {
			pol = FixedChunks(64)
		}
		ix, _, err := BuildPolicy("app", "v1", imagefmt.Config{Env: []string{"E=1"}}, root, nil, pol)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := ix.ToTree()
		if err != nil {
			t.Fatal(err)
		}
		diff := containerSession(overlay.AttachShared(tree), rng, 25, contents, modes)
		if diff.Walk(func(p string, _ *vfs.Node) error {
			if path.Base(p) == tarstream.OpaqueMarker {
				return errFound
			}
			return nil
		}) != nil {
			opaque++
		}

		got, gotFiles, err := ApplyDiff(ix, "app", "v2", diff, nil)
		want, wantFiles, werr := applyDiffMutable(ix, "app", "v2", diff, nil)
		if err != nil || werr != nil {
			t.Fatalf("seed %d: ApplyDiff err %v, oracle err %v", seed, err, werr)
		}
		a, err := EncodeBinary(got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeBinary(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: ApplyDiff's index differs from the oracle's", seed)
		}
		if len(gotFiles) != len(wantFiles) {
			t.Fatalf("seed %d: %d new files, oracle %d", seed, len(gotFiles), len(wantFiles))
		}
		for fp, data := range wantFiles {
			if !bytes.Equal(gotFiles[fp], data) {
				t.Fatalf("seed %d: new file %s differs", seed, fp)
			}
		}
	}
	if opaque < 20 {
		t.Errorf("only %d of the diffs re-create a directory: the comparison misses the opaque case", opaque)
	}
}

var errFound = errors.New("found")

// containerSession runs n random operations of a container on m — what
// a viewer does to its mount — and returns the diff they leave.
func containerSession(m *overlay.Mount, rng *rand.Rand, n int, contents [][]byte, modes []fs.FileMode) *vfs.FS {
	for i := 0; i < n; i++ {
		all := []string{"/"}
		_ = m.Walk(func(p string, _ *vfs.Node) error {
			all = append(all, p)
			return nil
		})
		target := all[rng.Intn(len(all))]
		mode := modes[rng.Intn(len(modes))]
		data := contents[rng.Intn(len(contents))]
		switch rng.Intn(8) {
		case 0:
			_ = m.WriteFile(path.Join(target, fmt.Sprintf("w%d", rng.Intn(3))), data, 0o600)
		case 1:
			_ = m.WriteFile(target, data, 0o640) // over a file, if it is one
		case 2:
			_ = m.Mkdir(path.Join(target, fmt.Sprintf("d%d", i)), mode)
		case 3:
			_ = m.Symlink("/elsewhere", path.Join(target, fmt.Sprintf("s%d", i)))
		case 4:
			_ = m.Remove(target)
		case 5:
			if target != "/" || rng.Intn(10) == 0 {
				_ = m.RemoveAll(target)
			}
		default: // deleted and made again, at a mode of its own
			if n, err := m.Stat(target); err == nil && n.IsDir() && target != "/" {
				_ = m.RemoveAll(target)
				_ = m.Mkdir(target, mode)
			}
		}
	}
	return m.DiffTree()
}

// applyDiffMutable is ApplyDiff as it was before it became
// tarstream.ApplyLayer over the placeholder tree: a merge of its own, on
// an editable copy of the entry tree. It is the oracle the one engine is
// held to.
func applyDiffMutable(ix *Index, newName, newTag string, diff *vfs.FS, reg *hashing.Registry) (*Index, map[hashing.Fingerprint][]byte, error) {
	if reg == nil {
		reg = hashing.NewRegistry(nil)
	}
	root := toMutable(ix.Root)
	newFiles := make(map[hashing.Fingerprint][]byte)

	// Pass 1: opaque clears.
	err := diff.Walk(func(p string, n *vfs.Node) error {
		switch {
		case path.Base(p) == tarstream.OpaqueMarker:
			if dir := lookupMutable(root, path.Dir(p)); dir != nil {
				dir.children = make(map[string]*mutableEntry)
			}
		case n.IsDir() && n.Opaque:
			if dir := lookupMutable(root, p); dir != nil {
				dir.children = make(map[string]*mutableEntry)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Pass 2: whiteouts, additions, replacements.
	err = diff.Walk(func(p string, n *vfs.Node) error {
		name := path.Base(p)
		if name == tarstream.OpaqueMarker {
			return nil
		}
		if hidden, ok := strings.CutPrefix(name, tarstream.WhiteoutPrefix); ok {
			if dir := lookupMutable(root, path.Dir(p)); dir != nil {
				delete(dir.children, hidden)
			}
			return nil
		}
		parent := mkdirMutable(root, path.Dir(p))
		switch n.Type() {
		case vfs.TypeDir:
			existing := parent.children[name]
			if existing == nil || existing.typ != vfs.TypeDir {
				parent.children[name] = &mutableEntry{typ: vfs.TypeDir, mode: n.Mode(), children: make(map[string]*mutableEntry)}
			} else {
				existing.mode = n.Mode()
			}
		case vfs.TypeRegular:
			data := n.Content().Data()
			fp := reg.Assign(data)
			newFiles[fp] = data
			parent.children[name] = &mutableEntry{typ: vfs.TypeRegular, mode: n.Mode(), fp: fp, size: int64(len(data))}
		case vfs.TypeSymlink:
			parent.children[name] = &mutableEntry{typ: vfs.TypeSymlink, mode: n.Mode(), target: n.Target()}
		default:
			return fmt.Errorf("%w: diff node type %v at %s", ErrCorrupt, n.Type(), p)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := &Index{Name: newName, Tag: newTag, Config: ix.Config, Root: fromMutable("", root)}
	if err := out.Validate(); err != nil {
		return nil, nil, err
	}
	return out, newFiles, nil
}

// mutableEntry mirrors Entry with map-based children for editing.
type mutableEntry struct {
	typ      vfs.FileType
	mode     fs.FileMode
	target   string
	fp       hashing.Fingerprint
	size     int64
	chunks   []Chunk
	children map[string]*mutableEntry
}

func toMutable(e *Entry) *mutableEntry {
	m := &mutableEntry{typ: e.Type, mode: e.Mode, target: e.Target, fp: e.Fingerprint, size: e.Size, chunks: e.Chunks}
	if e.Type == vfs.TypeDir {
		m.children = make(map[string]*mutableEntry, len(e.Children))
		for _, c := range e.Children {
			m.children[c.Name] = toMutable(c)
		}
	}
	return m
}

func fromMutable(name string, m *mutableEntry) *Entry {
	e := &Entry{Name: name, Type: m.typ, Mode: m.mode, Target: m.target, Fingerprint: m.fp, Size: m.size, Chunks: m.chunks}
	if m.typ == vfs.TypeDir {
		names := make([]string, 0, len(m.children))
		for n := range m.children {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			e.Children = append(e.Children, fromMutable(n, m.children[n]))
		}
	}
	return e
}

func lookupMutable(root *mutableEntry, p string) *mutableEntry {
	cur := root
	for _, part := range vfs.Split(p) {
		if cur.typ != vfs.TypeDir {
			return nil
		}
		if cur = cur.children[part]; cur == nil {
			return nil
		}
	}
	return cur
}

// mkdirMutable walks to p creating directories as needed (overwriting
// non-directories, as tar extraction does).
func mkdirMutable(root *mutableEntry, p string) *mutableEntry {
	cur := root
	for _, part := range vfs.Split(p) {
		next := cur.children[part]
		if next == nil || next.typ != vfs.TypeDir {
			next = &mutableEntry{typ: vfs.TypeDir, mode: 0o755, children: make(map[string]*mutableEntry)}
			cur.children[part] = next
		}
		cur = next
	}
	return cur
}
