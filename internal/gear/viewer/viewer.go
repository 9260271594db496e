// Package viewer implements the Gear File Viewer (§III-D2, §IV of the
// paper): the component that gives a Gear container its root filesystem
// view. It union-mounts the image's read-only "index" directory (level 2
// of the three-level storage structure) under a writable "diff"
// directory (level 3), and redirects regular-file reads through
// fingerprints.
//
// The paper implements the redirection by patching Overlay2's
// ovl_lookup_single(): when the lookup hits a fingerprint file, the
// kernel pauses and asks a user-mode helper to make the file readable
// (hard-linking from the shared cache or downloading it), then resumes.
// Here the same protocol appears as the Resolver interface: a read that
// hits a placeholder pauses, calls Resolve, and continues against the
// materialized content.
package viewer

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/overlay"
	"github.com/gear-image/gear/internal/vfs"
)

// ErrStopped reports use of a viewer after Close.
var ErrStopped = errors.New("viewer is closed")

// Resolver is the user-mode helper of §IV: it makes the Gear file for a
// fingerprint readable — from the shared local cache if present, else by
// downloading it. file is the node of the shared index tree the viewer
// found at path, and stub what it recorded then: a concurrent fault may
// have materialized it since. A ranged read is part of the contract, not
// an extension of it: what it costs — the overlapping chunks, a range
// request, or the whole file — is the resolver's decision, and its error
// is the read's error.
type Resolver interface {
	// Resolve installs the whole file over the placeholder at path in the
	// shared index tree and returns the materialized content.
	Resolve(imageRef, path string, file *vfs.Node, stub index.Stub) (*vfs.Content, error)
	// ResolveRange returns the bytes of [off, off+n) that exist, for
	// off >= 0 and n > 0; it may or may not materialize the file.
	ResolveRange(imageRef, path string, file *vfs.Node, stub index.Stub, off, n int64) ([]byte, error)
}

// Viewer is one container's filesystem view. Reads resolve lazily;
// writes land in the diff layer. Viewer is safe for concurrent use.
type Viewer struct {
	imageRef string
	resolver Resolver

	mu     sync.Mutex
	mount  *overlay.Mount
	closed bool
}

// New mounts a viewer over the shared index tree (level 2) with a fresh
// diff layer. The index tree is attached without copying so placeholder
// materializations are shared across viewers of the same image.
func New(imageRef string, indexTree *vfs.FS, resolver Resolver) *Viewer {
	return &Viewer{
		imageRef: imageRef,
		resolver: resolver,
		mount:    overlay.AttachShared(indexTree),
	}
}

func (v *Viewer) checkOpen() error {
	if v.closed {
		return fmt.Errorf("viewer %s: %w", v.imageRef, ErrStopped)
	}
	return nil
}

// readLocked returns the content of the regular file at the clean path p
// as the mount holds it or, when that is an index placeholder still to be
// materialized (lazy), its node and what it records.
// Data written by the container itself is returned verbatim even if it
// happens to look like a placeholder: only lower-layer (index) entries
// are fingerprint files. The caller holds v.mu.
func (v *Viewer) readLocked(p string) (data []byte, n *vfs.Node, stub index.Stub, lazy bool, err error) {
	if err := v.checkOpen(); err != nil {
		return nil, nil, stub, false, err
	}
	if n, err = v.mount.File(p); err != nil {
		return nil, nil, stub, false, err
	}
	if !v.mount.Upper().Exists(p) {
		if stub, lazy = index.StubOf(n); lazy {
			return nil, n, stub, true, nil
		}
	}
	return n.Content().Data(), n, stub, false, nil
}

// fault is the pause of §IV: a read that found a placeholder asks the
// helper to make the file readable, then resumes. The caller holds v.mu;
// fault returns with it released. The helper may be downloading, so the
// lock is not held meanwhile: other threads of the container go on
// reading, and faulting, elsewhere. The helper counts and times the
// pause (the store's store.demand.* metrics); the viewer does neither.
func (v *Viewer) fault(p string, resolve func() ([]byte, error)) ([]byte, error) {
	v.mu.Unlock()
	data, err := resolve()
	v.mu.Lock()
	defer v.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("viewer %s: fault %s: %w", v.imageRef, p, err)
	}
	if err := v.checkOpen(); err != nil {
		return nil, err // closed while the fault was parked
	}
	return data, nil
}

// ReadFile returns the content of the regular file at p, materializing a
// fingerprint placeholder on first access ("downloaded on demand, stored
// at the first level, and hard linked to the index", §III-D2). The result
// may be the level-1 cache's own bytes and must not be mutated.
func (v *Viewer) ReadFile(p string) ([]byte, error) {
	p = vfs.Clean(p)
	v.mu.Lock()
	data, file, stub, lazy, err := v.readLocked(p)
	if !lazy {
		v.mu.Unlock()
		return data, err // already materialized
	}
	return v.fault(p, func() ([]byte, error) {
		content, err := v.resolver.Resolve(v.imageRef, p, file, stub)
		if err != nil {
			return nil, err
		}
		return content.Data(), nil
	})
}

// ReadAt returns up to n bytes of the regular file at p starting at off.
// A ranged read of an unmaterialized file is one fault like any other;
// for a chunked file the resolver fetches only the chunks overlapping the
// range — the mechanism the paper proposes for AI containers with big
// models. An empty range reads nothing and fetches nothing. A negative
// offset is pread's EINVAL: a *fs.PathError wrapping vfs.ErrInvalid,
// whether the file is materialized or not. Like ReadFile's, the result
// may alias the level-1 cache's bytes and must not be mutated.
func (v *Viewer) ReadAt(p string, off, n int64) ([]byte, error) {
	p = vfs.Clean(p)
	if off < 0 {
		return nil, &fs.PathError{Op: "read", Path: p, Err: vfs.ErrInvalid}
	}
	v.mu.Lock()
	data, file, stub, lazy, err := v.readLocked(p)
	if !lazy || n <= 0 {
		v.mu.Unlock()
		return sliceRange(data, off, n), err // materialized, or nothing asked for
	}
	return v.fault(p, func() ([]byte, error) {
		return v.resolver.ResolveRange(v.imageRef, p, file, stub, off, n)
	})
}

func sliceRange(data []byte, off, n int64) []byte {
	if off < 0 || off >= int64(len(data)) || n <= 0 {
		return nil
	}
	end := off + n
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	return data[off:end]
}

// Stat resolves p. For an unmaterialized placeholder it reports the real
// file's size (recorded in the placeholder), not the placeholder's own
// length, so stat-only workloads never trigger downloads.
func (v *Viewer) Stat(p string) (Info, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return Info{}, err
	}
	p = vfs.Clean(p)
	n, err := v.mount.Stat(p)
	if err != nil {
		return Info{}, err
	}
	info := Info{Type: n.Type(), Mode: n.Mode(), Target: n.Target()}
	if n.Type() != vfs.TypeRegular {
		info.Size = n.Size()
		return info, nil
	}
	// Another container's fault may materialize the node meanwhile, but
	// never the other way: a file StubOf finds materialized stays so.
	if !v.mount.Upper().Exists(p) {
		if stub, lazy := index.StubOf(n); lazy {
			info.Size, info.Lazy = stub.Size, true
			return info, nil
		}
	}
	info.Size = n.Content().Size()
	return info, nil
}

// Info describes a file in the container's view.
type Info struct {
	Type   vfs.FileType
	Mode   fs.FileMode
	Size   int64
	Target string
	// Lazy reports that the file has not been materialized yet.
	Lazy bool
}

// Exists reports whether p resolves in the view.
func (v *Viewer) Exists(p string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return false
	}
	return v.mount.Exists(p)
}

// Readlink returns the symlink target at p. Irregular files are answered
// directly from the index without touching Gear files (§III-D2).
func (v *Viewer) Readlink(p string) (string, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return "", err
	}
	return v.mount.Readlink(p)
}

// ReadDir lists the directory at p from the union view.
func (v *Viewer) ReadDir(p string) ([]string, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return nil, err
	}
	return v.mount.ReadDir(p)
}

// WriteFile writes a file into the diff layer.
func (v *Viewer) WriteFile(p string, data []byte, mode fs.FileMode) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	return v.mount.WriteFile(p, data, mode)
}

// Mkdir creates a directory in the diff layer.
func (v *Viewer) Mkdir(p string, mode fs.FileMode) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	return v.mount.Mkdir(p, mode)
}

// Symlink creates a symlink in the diff layer.
func (v *Viewer) Symlink(target, p string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	return v.mount.Symlink(target, p)
}

// Remove deletes p from the view (whiteout in the diff layer for index
// entries).
func (v *Viewer) Remove(p string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	return v.mount.Remove(p)
}

// RemoveAll deletes the subtree at p from the view.
func (v *Viewer) RemoveAll(p string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	return v.mount.RemoveAll(p)
}

// Walk visits the union view; placeholders are NOT materialized (a walk
// is metadata-only, like ls -R).
func (v *Viewer) Walk(fn vfs.WalkFunc) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	return v.mount.Walk(fn)
}

// DiffTree returns a copy of the diff layer — the input to commit.
func (v *Viewer) DiffTree() *vfs.FS {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.mount.DiffTree()
}

// Close stops the viewer. The paper notes Gear containers tear down
// faster than Docker because only the required files' inode caches need
// destroying.
func (v *Viewer) Close() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.closed = true
}
