package tarstream

import (
	"errors"
	"fmt"
	"io/fs"
	"path"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/vfs"
)

// applyLayerByPath is ApplyLayer as it was before it moved the layer's
// nodes: two walks of the layer spelling out every path, the first
// deleting what whiteouts and opaque directories hide, the second making
// every other entry again in base, one path lookup each. FuzzApplyLayer
// holds ApplyLayer to it.
func applyLayerByPath(base *vfs.FS, layer *vfs.FS) error {
	err := layer.Walk(func(p string, n *vfs.Node) error {
		i := strings.LastIndexByte(p, '/')
		dir, name := p[:max(i, 1)], p[i+1:]
		var gone string
		if hidden, ok := IsWhiteout(name); ok {
			if hidden == "" || hidden == "." || hidden == ".." {
				return nil
			}
			gone = path.Join(dir, hidden)
		} else if name == OpaqueMarker {
			gone = dir
		} else if n.IsDir() && n.Opaque {
			gone = p
		} else {
			return nil
		}
		if err := base.RemoveAll(gone); err != nil && !errors.Is(err, vfs.ErrNotDir) {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	return layer.Walk(func(p string, n *vfs.Node) error {
		name := p[strings.LastIndexByte(p, '/')+1:]
		if _, ok := IsWhiteout(name); ok || name == OpaqueMarker {
			return nil
		}
		existing := base.Lookup(p)
		switch n.Type() {
		case vfs.TypeDir:
			if existing != nil && existing.IsDir() {
				existing.SetMode(n.Mode())
				return nil
			}
			if existing != nil {
				if err := base.Remove(p); err != nil {
					return err
				}
			}
			return base.MkdirAll(p, n.Mode())
		case vfs.TypeRegular:
			if existing != nil && existing.IsDir() {
				if err := base.RemoveAll(p); err != nil {
					return err
				}
			}
			return base.WriteFile(p, n.Content().Data(), n.Mode())
		default:
			if existing != nil && existing.IsDir() {
				if err := base.RemoveAll(p); err != nil {
					return err
				}
			}
			return base.Symlink(n.Target(), p)
		}
	})
}

// The names and modes fuzzTree builds with: few enough that a base and a
// layer meet at most paths, with every kind of marker, a name that sorts
// before the whiteout prefix, and a mode with more than permission bits.
var (
	fuzzNames = []string{"a", "b", "-a", WhiteoutPrefix + "a", WhiteoutPrefix + "b", WhiteoutPrefix + "-a",
		WhiteoutPrefix, WhiteoutPrefix + ".", WhiteoutPrefix + "..", OpaqueMarker}
	fuzzModes = []fs.FileMode{0o755, 0o700, 0o644, fs.ModeSticky | 0o750}
)

// fuzzTree builds a tree from prog, four bytes an operation: the
// operation, the directory it acts in, the name and an argument. The
// same prog builds the same tree, hard links and all.
func fuzzTree(prog []byte) *vfs.FS {
	f := vfs.New()
	dirs, files := []string{"/"}, []string(nil)
	for ; len(prog) >= 4; prog = prog[4:] {
		dir, arg := dirs[int(prog[1])%len(dirs)], prog[3]
		p := path.Join(dir, fuzzNames[int(prog[2])%len(fuzzNames)])
		mode := fuzzModes[int(arg)%len(fuzzModes)]
		switch prog[0] % 6 {
		case 0:
			if f.Mkdir(p, mode) == nil {
				dirs = append(dirs, p)
			}
		case 1:
			if f.WriteFile(p, []byte{arg}, mode) == nil {
				files = append(files, p)
			}
		case 2:
			_ = f.Symlink(fuzzNames[int(arg)%3], p)
		case 3:
			if len(files) > 0 && f.Link(files[int(arg)%len(files)], p) == nil {
				files = append(files, p)
			}
		case 4:
			f.Lookup(dir).Opaque = arg%2 == 0
		default:
			if n := f.Lookup(p); n != nil {
				n.SetMode(mode)
			}
		}
	}
	return f
}

// graftSnapshot is every entry of f, the root included: type, mode,
// target, content, Opaque flag and link count.
func graftSnapshot(f *vfs.FS) string {
	var sb strings.Builder
	root := f.Root()
	fmt.Fprintf(&sb, "/ %v opaque=%v\n", root.Mode(), root.Opaque)
	_ = f.Walk(func(p string, n *vfs.Node) error {
		fmt.Fprintf(&sb, "%s %v %v %q opaque=%v", p, n.Type(), n.Mode(), n.Target(), n.Opaque)
		if c := n.Content(); c != nil {
			fmt.Fprintf(&sb, " %q nlink=%d", c.Data(), c.Nlink())
		}
		sb.WriteByte('\n')
		return nil
	})
	return sb.String()
}

// dropMarkerEntries empties every whiteout and opaque marker of layer
// that is a directory: ApplyLayer moves no entry of one, where the
// path-based apply made them in base.
func dropMarkerEntries(layer *vfs.FS) {
	var markers []string
	_ = layer.Walk(func(p string, n *vfs.Node) error {
		if name := path.Base(p); (strings.HasPrefix(name, WhiteoutPrefix) || name == OpaqueMarker) && n.NumChildren() > 0 {
			markers = append(markers, p)
		}
		return nil
	})
	for _, p := range markers {
		names, _ := layer.ReadDirNames(p)
		for _, name := range names {
			_ = layer.RemoveAll(p + "/" + name)
		}
	}
}

// FuzzApplyLayer: ApplyLayer, which moves the layer's nodes into base,
// leaves base as the path-based apply does — every entry's type, mode,
// target, content, Opaque flag and link count — over random bases and
// layers of whiteouts, opaque markers and flags, file, directory and
// symlink replacements and hard links; a marker that is a directory
// going with its entries. The layer is left empty.
func FuzzApplyLayer(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 3, 0, 2, 0, 0, 0, 1, 1}, []byte{0, 0, 0, 3, 1, 1, 9, 0, 1, 1, 3, 2, 2, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 1, 2, 1, 5, 4, 1, 0, 0}, []byte{0, 0, 0, 1, 4, 1, 0, 0, 1, 0, 4, 0, 0, 0, 5, 2})
	f.Add([]byte{1, 0, 0, 1, 3, 0, 1, 0, 0, 0, 2, 0}, []byte{0, 0, 0, 0, 1, 1, 1, 0, 2, 0, 1, 0, 0, 0, 3, 3})
	f.Add([]byte{0, 0, 2, 0, 1, 1, 0, 0}, []byte{0, 0, 3, 0, 1, 1, 0, 7, 0, 0, 2, 2})
	f.Fuzz(func(t *testing.T, baseProg, layerProg []byte) {
		want, got := fuzzTree(baseProg), fuzzTree(baseProg)
		layer, spent := fuzzTree(layerProg), fuzzTree(layerProg)
		dropMarkerEntries(layer)
		if err := applyLayerByPath(want, layer); err != nil {
			t.Fatalf("path-based apply: %v", err)
		}
		ApplyLayer(got, spent)
		if w, g := graftSnapshot(want), graftSnapshot(got); w != g {
			t.Fatalf("ApplyLayer differs from the path-based apply:\n--- path-based\n%s--- ApplyLayer\n%s", w, g)
		}
		if st := spent.Stats(); st != (vfs.Stats{}) {
			t.Fatalf("the layer holds %+v after ApplyLayer, want nothing", st)
		}
	})
}
