// Package overlay implements an Overlay2-style union mount over vfs trees:
// a stack of read-only lower layers (bottom first, each a layer diff with
// literal whiteout entries) merged with one writable upper directory.
//
// This is the graph-driver substrate of the reproduction (§II-C of the
// Gear paper). The Docker baseline mounts all image layers plus a writable
// layer; the Gear File Viewer mounts a read-only Gear index plus a
// writable "diff" directory on top of it (§III-D2). Deletions are recorded
// as whiteout files in the upper layer, so the upper tree is exactly the
// "diff/" directory that a commit serializes back into a layer.
package overlay

import (
	"errors"
	"fmt"
	"io/fs"
	"path"
	"sort"
	"strings"

	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// ErrReadOnly reports a write to a read-only mount.
var ErrReadOnly = errors.New("read-only mount")

// Mount is a union view of lower layers and a writable upper tree.
// It is not safe for concurrent mutation; the Gear driver serializes
// writes per container exactly as the kernel serializes per-inode.
type Mount struct {
	// squash is the flattened lower stack (whiteouts resolved).
	squash *vfs.FS
	// upper holds this container's modifications, with literal whiteouts.
	upper *vfs.FS
	// readonly disables all mutation (used for index-only mounts).
	readonly bool
}

// New mounts the given lower layer diffs (bottom first) under a fresh
// writable upper. Lower layers may contain whiteout entries; they are
// resolved while squashing, mirroring how Overlay2 presents a merged view.
func New(lowers ...*vfs.FS) (*Mount, error) {
	squash := vfs.New()
	for i, l := range lowers {
		if err := tarstream.ApplyLayer(squash, l); err != nil {
			return nil, fmt.Errorf("overlay: squash lower %d: %w", i, err)
		}
	}
	return &Mount{squash: squash, upper: vfs.New()}, nil
}

// AttachShared mounts an existing tree as the read-only lower WITHOUT
// copying it. The mount never mutates the lower tree, but external
// refinements of it (the Gear driver swapping a fingerprint placeholder
// for a hard-linked Gear file, §III-D2) become visible to every mount
// attached to the same tree — matching how all containers of one image
// share the kernel's dentry tree for the index directory.
func AttachShared(lower *vfs.FS) *Mount {
	return &Mount{squash: lower, upper: vfs.New()}
}

// AttachSharedWithUpper is AttachShared with an existing upper tree (a
// stopped container's diff directory being re-mounted).
func AttachSharedWithUpper(lower, upper *vfs.FS) *Mount {
	return &Mount{squash: lower, upper: upper}
}

// NewWithUpper mounts lowers under an existing upper tree (e.g. when
// re-mounting a stopped container's diff directory).
func NewWithUpper(upper *vfs.FS, lowers ...*vfs.FS) (*Mount, error) {
	m, err := New(lowers...)
	if err != nil {
		return nil, err
	}
	m.upper = upper
	return m, nil
}

// SetReadOnly marks the mount read-only.
func (m *Mount) SetReadOnly() { m.readonly = true }

// Upper returns the writable layer (the "diff/" directory). Mutating it
// directly bypasses whiteout bookkeeping; callers should treat it as
// read-only and use Commit-style flows instead.
func (m *Mount) Upper() *vfs.FS { return m.upper }

// Lower returns the squashed read-only view of all lower layers.
func (m *Mount) Lower() *vfs.FS { return m.squash }

// whiteoutPath returns the upper-layer whiteout marker path for the clean
// path p.
func whiteoutPath(p string) string {
	i := strings.LastIndexByte(p, '/')
	return p[:i+1] + tarstream.WhiteoutPrefix + p[i+1:]
}

// upperAt walks the clean path p down the upper tree, once, and reports
// what the upper layer says about it: n is the upper's node at p (nil if
// it has none), and hidden is whether the upper hides the lower entry at
// p — by a whiteout on p or an ancestor, by an ancestor that is a file or
// symlink in the upper, or by an opaque marker in an ancestor (the root
// included: "rm -rf /" marks it) below which the upper does not itself
// carry p.
//
// Whiteouts, markers and shadowing files are all entries of the upper's
// directories along p, so each is one lookup in the directory node the
// walk is standing in, and the walk ends at the first ancestor the upper
// has no node for: below it the upper has no directory left to hold any
// of them. Under an empty upper that is the first step.
func (m *Mount) upperAt(p string) (n *vfs.Node, hidden bool) {
	m.upper.RLock()
	defer m.upper.RUnlock()
	n = m.upper.Root()
	opaque := false
	for rest := p[1:]; rest != "" && n != nil; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if n.NumChildren() == 0 {
			n = nil
			break
		}
		opaque = opaque || n.Child(tarstream.OpaqueMarker) != nil
		hidden = hidden || n.Child(tarstream.WhiteoutPrefix+name) != nil
		n = n.Child(name)
		if n != nil && rest != "" && !n.IsDir() {
			// An upper file/symlink shadows the whole lower subtree.
			return nil, true
		}
	}
	return n, hidden || (opaque && n == nil)
}

// lookup resolves the clean path p through the union, or returns nil:
// upper wins over lower; whiteouts and opaque markers hide lower entries.
func (m *Mount) lookup(p string) *vfs.Node {
	n, hidden := m.upperAt(p)
	if n != nil {
		if IsMarkerName(n.Name()) {
			return nil
		}
		// An upper directory merges with lower; any other upper node
		// shadows the lower entirely.
		return n
	}
	if hidden {
		return nil
	}
	return m.squash.Lookup(p)
}

// Stat resolves p through the union: upper wins over lower; whiteouts and
// opaque markers hide lower entries.
func (m *Mount) Stat(p string) (*vfs.Node, error) {
	p = vfs.Clean(p)
	n := m.lookup(p)
	if n == nil {
		return nil, fmt.Errorf("overlay: stat %s: %w", p, vfs.ErrNotExist)
	}
	return n, nil
}

// Exists reports whether p resolves in the union view.
func (m *Mount) Exists(p string) bool { return m.lookup(vfs.Clean(p)) != nil }

// ReadFile returns the regular-file content at p from the union view.
func (m *Mount) ReadFile(p string) ([]byte, error) {
	n, err := m.Stat(p)
	if err != nil {
		return nil, err
	}
	if n.IsDir() {
		return nil, fmt.Errorf("overlay: read %s: %w", vfs.Clean(p), vfs.ErrIsDir)
	}
	if n.Type() != vfs.TypeRegular {
		return nil, fmt.Errorf("overlay: read %s: %w", vfs.Clean(p), vfs.ErrInvalid)
	}
	return n.Content().Data(), nil
}

// Readlink returns the symlink target at p.
func (m *Mount) Readlink(p string) (string, error) {
	n, err := m.Stat(p)
	if err != nil {
		return "", err
	}
	if n.Type() != vfs.TypeSymlink {
		return "", fmt.Errorf("overlay: readlink %s: %w", vfs.Clean(p), vfs.ErrInvalid)
	}
	return n.Target(), nil
}

// ensureUpperDir materializes p's directory chain in the upper layer
// (Overlay2's "copy-up" of parent directories before a write).
func (m *Mount) ensureUpperDir(dir string) error {
	return m.upper.MkdirAll(dir, 0o755)
}

// WriteFile writes a regular file at p. The write lands in the upper
// layer; a same-named lower file is shadowed (whole-file copy-up
// semantics). Parent directories must exist in the union view.
func (m *Mount) WriteFile(p string, data []byte, mode fs.FileMode) error {
	if m.readonly {
		return fmt.Errorf("overlay: write %s: %w", vfs.Clean(p), ErrReadOnly)
	}
	p = vfs.Clean(p)
	dir := path.Dir(p)
	if dir != "/" {
		n, err := m.Stat(dir)
		if err != nil {
			return fmt.Errorf("overlay: write %s: %w", p, vfs.ErrNotExist)
		}
		if !n.IsDir() {
			return fmt.Errorf("overlay: write %s: %w", p, vfs.ErrNotDir)
		}
	}
	if n, err := m.Stat(p); err == nil && n.IsDir() {
		return fmt.Errorf("overlay: write %s: %w", p, vfs.ErrIsDir)
	}
	if err := m.ensureUpperDir(dir); err != nil {
		return fmt.Errorf("overlay: write %s: %w", p, err)
	}
	// Writing over a previously deleted name revives it: drop the marker.
	_ = m.upper.Remove(whiteoutPath(p))
	if err := m.upper.WriteFile(p, data, mode); err != nil {
		return fmt.Errorf("overlay: write %s: %w", p, err)
	}
	return nil
}

// Mkdir creates a directory at p in the upper layer.
func (m *Mount) Mkdir(p string, mode fs.FileMode) error {
	if m.readonly {
		return fmt.Errorf("overlay: mkdir %s: %w", vfs.Clean(p), ErrReadOnly)
	}
	p = vfs.Clean(p)
	if m.Exists(p) {
		return fmt.Errorf("overlay: mkdir %s: %w", p, vfs.ErrExist)
	}
	dir := path.Dir(p)
	if dir != "/" {
		n, err := m.Stat(dir)
		if err != nil {
			return fmt.Errorf("overlay: mkdir %s: %w", p, vfs.ErrNotExist)
		}
		if !n.IsDir() {
			return fmt.Errorf("overlay: mkdir %s: %w", p, vfs.ErrNotDir)
		}
	}
	if err := m.ensureUpperDir(dir); err != nil {
		return fmt.Errorf("overlay: mkdir %s: %w", p, err)
	}
	wasDeleted := m.upper.Exists(whiteoutPath(p))
	_ = m.upper.Remove(whiteoutPath(p))
	if err := m.upper.MkdirAll(p, mode); err != nil {
		return fmt.Errorf("overlay: mkdir %s: %w", p, err)
	}
	if wasDeleted && m.squash.Exists(p) {
		// Re-created over a deleted lower dir: hide stale lower content.
		if err := m.upper.WriteFile(path.Join(p, tarstream.OpaqueMarker), nil, 0); err != nil {
			return fmt.Errorf("overlay: mkdir %s: %w", p, err)
		}
	}
	return nil
}

// Symlink creates a symbolic link at p in the upper layer.
func (m *Mount) Symlink(target, p string) error {
	if m.readonly {
		return fmt.Errorf("overlay: symlink %s: %w", vfs.Clean(p), ErrReadOnly)
	}
	p = vfs.Clean(p)
	dir := path.Dir(p)
	if dir != "/" {
		n, err := m.Stat(dir)
		if err != nil {
			return fmt.Errorf("overlay: symlink %s: %w", p, vfs.ErrNotExist)
		}
		if !n.IsDir() {
			return fmt.Errorf("overlay: symlink %s: %w", p, vfs.ErrNotDir)
		}
	}
	if n, err := m.Stat(p); err == nil && n.IsDir() {
		return fmt.Errorf("overlay: symlink %s: %w", p, vfs.ErrIsDir)
	}
	if err := m.ensureUpperDir(dir); err != nil {
		return fmt.Errorf("overlay: symlink %s: %w", p, err)
	}
	_ = m.upper.Remove(whiteoutPath(p))
	if err := m.upper.Symlink(target, p); err != nil {
		return fmt.Errorf("overlay: symlink %s: %w", p, err)
	}
	return nil
}

// Remove deletes p from the union view. Upper-only entries are removed
// directly; entries visible from the lower stack get a whiteout marker in
// the upper layer ("Gear File Viewer creates ... a whiteout file in diff",
// §III-D2).
func (m *Mount) Remove(p string) error {
	if m.readonly {
		return fmt.Errorf("overlay: remove %s: %w", vfs.Clean(p), ErrReadOnly)
	}
	p = vfs.Clean(p)
	if p == "/" {
		return fmt.Errorf("overlay: remove /: %w", vfs.ErrInvalid)
	}
	n, err := m.Stat(p)
	if err != nil {
		return err
	}
	if n.IsDir() {
		names, err := m.ReadDir(p)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			return fmt.Errorf("overlay: remove %s: %w", p, vfs.ErrNotEmpty)
		}
	}
	if m.upper.Exists(p) {
		if err := m.upper.RemoveAll(p); err != nil {
			return fmt.Errorf("overlay: remove %s: %w", p, err)
		}
	}
	if _, hidden := m.upperAt(p); !hidden && m.squash.Exists(p) {
		if err := m.ensureUpperDir(path.Dir(p)); err != nil {
			return fmt.Errorf("overlay: remove %s: %w", p, err)
		}
		if err := m.upper.WriteFile(whiteoutPath(p), nil, 0); err != nil {
			return fmt.Errorf("overlay: remove %s: %w", p, err)
		}
	}
	return nil
}

// RemoveAll deletes the subtree at p from the union view. Missing paths
// are not an error.
func (m *Mount) RemoveAll(p string) error {
	if m.readonly {
		return fmt.Errorf("overlay: removeall %s: %w", vfs.Clean(p), ErrReadOnly)
	}
	p = vfs.Clean(p)
	if p == "/" {
		// rm -rf /: empty the writable layer and hide the whole lower
		// stack behind a root opaque marker.
		if err := m.upper.RemoveAll("/"); err != nil {
			return fmt.Errorf("overlay: removeall /: %w", err)
		}
		if err := m.upper.WriteFile("/"+tarstream.OpaqueMarker, nil, 0); err != nil {
			return fmt.Errorf("overlay: removeall /: %w", err)
		}
		return nil
	}
	if !m.Exists(p) {
		// Match os.RemoveAll: a missing path is fine, but an ancestor
		// that exists and is not a directory is an error.
		if m.ancestorNotDir(p) {
			return fmt.Errorf("overlay: removeall %s: %w", p, vfs.ErrNotDir)
		}
		return nil
	}
	if err := m.upper.RemoveAll(p); err != nil {
		return fmt.Errorf("overlay: removeall %s: %w", p, err)
	}
	if _, hidden := m.upperAt(p); !hidden && m.squash.Exists(p) {
		if err := m.ensureUpperDir(path.Dir(p)); err != nil {
			return fmt.Errorf("overlay: removeall %s: %w", p, err)
		}
		if err := m.upper.WriteFile(whiteoutPath(p), nil, 0); err != nil {
			return fmt.Errorf("overlay: removeall %s: %w", p, err)
		}
	}
	return nil
}

// ancestorNotDir reports whether some proper ancestor of the clean path p
// resolves to a non-directory in the union view.
func (m *Mount) ancestorNotDir(p string) bool {
	for i := 1; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		n := m.lookup(p[:i])
		if n == nil {
			return false
		}
		if !n.IsDir() {
			return true
		}
	}
	return false
}

// ReadDir returns the merged, sorted entry names of the directory at p,
// with whiteout and opaque markers filtered out.
func (m *Mount) ReadDir(p string) ([]string, error) {
	p = vfs.Clean(p)
	n, err := m.Stat(p)
	if err != nil {
		return nil, err
	}
	if !n.IsDir() {
		return nil, fmt.Errorf("overlay: readdir %s: %w", p, vfs.ErrNotDir)
	}

	names := make(map[string]bool)
	// The upper's node at p, if it has one, is the directory n itself.
	upperDir, hidden := m.upperAt(p)
	opaque := false
	if upperDir != nil {
		for _, name := range upperDir.ChildNames() {
			if name == tarstream.OpaqueMarker {
				opaque = true
				continue
			}
			if IsMarkerName(name) {
				continue
			}
			names[name] = true
		}
		opaque = opaque || upperDir.Opaque
	}
	if !opaque && !hidden {
		// ReadDirNames lists the lower tree under its lock: the squash
		// layer may be a live shared index tree that a concurrent fetch
		// is linking Gear files into.
		lowerNames, _ := m.squash.ReadDirNames(p)
		for _, name := range lowerNames {
			if upperDir != nil {
				if upperDir.Child(tarstream.WhiteoutPrefix+name) != nil {
					continue
				}
				if un := upperDir.Child(name); un != nil && !un.IsDir() {
					// Shadowed by an upper file/symlink; already listed.
					continue
				}
			}
			names[name] = true
		}
	}
	out := make([]string, 0, len(names))
	for name := range names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Walk visits the union view in deterministic pre-order.
func (m *Mount) Walk(fn vfs.WalkFunc) error {
	return m.walkDir("/", fn)
}

func (m *Mount) walkDir(dir string, fn vfs.WalkFunc) error {
	names, err := m.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		p := path.Join(dir, name)
		n, err := m.Stat(p)
		if err != nil {
			return err
		}
		if err := fn(p, n); err != nil {
			return err
		}
		if n.IsDir() {
			if err := m.walkDir(p, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// Materialize flattens the union view into a standalone tree — the root
// filesystem a container process sees.
func (m *Mount) Materialize() (*vfs.FS, error) {
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
			return fmt.Errorf("overlay: materialize %s: %w", p, vfs.ErrInvalid)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DiffTree returns the upper layer — the container's modifications in
// layer-diff form (whiteouts literal), ready for tarstream packing. This
// is what "docker commit" turns into a new read-only layer (§II-A) and
// what the Gear File Viewer's commit extracts Gear files from (§III-D2).
func (m *Mount) DiffTree() *vfs.FS { return m.upper.Clone() }

// UpperStats summarizes the writable layer.
func (m *Mount) UpperStats() tarstream.LayerStats { return tarstream.StatsOf(m.upper) }

// IsMarkerName reports whether name is overlay bookkeeping (whiteout or
// opaque marker) rather than visible payload.
func IsMarkerName(name string) bool {
	if name == tarstream.OpaqueMarker {
		return true
	}
	return strings.HasPrefix(name, tarstream.WhiteoutPrefix)
}
