package tarstream

import (
	"bytes"
	"fmt"
	"path"
	"strings"

	"github.com/gear-image/gear/internal/vfs"
)

// The tests build layers and read archives with Diff and Unpack, and
// read whiteout names with IsWhiteout, which no code outside them needs:
// images are built from packages' own trees (corpus), and archives are
// read as gzip streams (UnpackGz) or applied (ApplyLayer, which vfs
// grafts by the marker names).

// IsWhiteout reports whether base name marks a lower-layer deletion, and
// returns the hidden name. The opaque marker is not a whiteout.
func IsWhiteout(name string) (hidden string, ok bool) {
	if name == OpaqueMarker {
		return "", false
	}
	if strings.HasPrefix(name, WhiteoutPrefix) {
		return strings.TrimPrefix(name, WhiteoutPrefix), true
	}
	return "", false
}

// Unpack parses a tar archive into a fresh tree. Whiteout entries are
// preserved literally (as empty regular files named ".wh.*"); use
// ApplyLayer to interpret them against a base tree.
func Unpack(data []byte) (*vfs.FS, error) {
	return unpackFrom(bytes.NewReader(data), len(data), ownCopy)
}

// Diff computes the layer tree that transforms base into next: changed and
// added entries appear literally, deletions appear as whiteout files. The
// result round-trips through ApplyLayer(base, Diff(base, next)) == next.
func Diff(base, next *vfs.FS) (*vfs.FS, error) {
	layer := vfs.New()

	// Additions and modifications.
	err := next.Walk(func(p string, n *vfs.Node) error {
		old := base.Lookup(p)
		if old != nil && sameNode(old, n) {
			return nil
		}
		if err := mkParents(layer, next, p); err != nil {
			return err
		}
		switch n.Type() {
		case vfs.TypeDir:
			// A dir replacing a non-dir must whiteout the old entry first.
			if old != nil && !old.IsDir() {
				if err := writeWhiteout(layer, p); err != nil {
					return err
				}
			}
			return layer.MkdirAll(p, n.Mode())
		case vfs.TypeRegular:
			return layer.WriteFile(p, n.Content().Data(), n.Mode())
		case vfs.TypeSymlink:
			return layer.Symlink(n.Target(), p)
		default:
			return fmt.Errorf("%w: node type %v at %s", ErrCorrupt, n.Type(), p)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("tarstream: diff: %w", err)
	}

	// Deletions.
	err = base.Walk(func(p string, n *vfs.Node) error {
		if next.Exists(p) {
			return nil
		}
		// What was below a directory next no longer holds as one went
		// with it: its whiteout, or the entry replacing it, says so.
		if parent := path.Dir(p); parent != "/" {
			if pn := next.Lookup(parent); pn == nil || !pn.IsDir() {
				return nil
			}
		}
		if err := mkParents(layer, next, p); err != nil {
			return err
		}
		return writeWhiteout(layer, p)
	})
	if err != nil {
		return nil, fmt.Errorf("tarstream: diff deletions: %w", err)
	}
	return layer, nil
}

// mkParents makes the directories above p that layer lacks, each with
// the mode next has for it: under ApplyLayer a directory entry sets its
// directory's mode, so a parent that is in the layer only to hold p must
// carry the mode it already has.
func mkParents(layer, next *vfs.FS, p string) error {
	if i := strings.LastIndexByte(p, '/'); i <= 0 || layer.Exists(p[:i]) {
		return nil
	}
	for i := 1; i < len(p); i++ {
		if dir := p[:i]; p[i] == '/' && !layer.Exists(dir) {
			if err := layer.Mkdir(dir, next.Lookup(dir).Mode()); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeWhiteout(layer *vfs.FS, p string) error {
	i := strings.LastIndexByte(p, '/')
	return layer.WriteFile(p[:i+1]+WhiteoutPrefix+p[i+1:], nil, 0)
}

func sameNode(a, b *vfs.Node) bool {
	if a.Type() != b.Type() || a.Mode() != b.Mode() {
		return false
	}
	switch a.Type() {
	case vfs.TypeDir:
		return true
	case vfs.TypeSymlink:
		return a.Target() == b.Target()
	case vfs.TypeRegular:
		return bytes.Equal(a.Content().Data(), b.Content().Data())
	default:
		return false
	}
}
