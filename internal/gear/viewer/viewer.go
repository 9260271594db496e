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
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/overlay"
	"github.com/gear-image/gear/internal/vfs"
)

// ErrStopped reports use of a viewer after Close.
var ErrStopped = errors.New("viewer is closed")

// Resolver is the user-mode helper of §IV: it makes the Gear file for a
// fingerprint readable — from the shared local cache if present, else by
// downloading it. path, fp and size are what the placeholder at path
// records. A ranged read is part of the contract, not an extension of it:
// what it costs — the overlapping chunks, a range request, or the whole
// file — is the resolver's decision, and its error is the read's error.
type Resolver interface {
	// Resolve installs the whole file over the placeholder at path in the
	// shared index tree and returns the materialized content.
	Resolve(imageRef, path string, fp hashing.Fingerprint, size int64) (*vfs.Content, error)
	// ResolveRange returns the bytes of [off, off+n) that exist, for
	// off >= 0 and n > 0; it may or may not materialize the file.
	ResolveRange(imageRef, path string, fp hashing.Fingerprint, size, off, n int64) ([]byte, error)
}

// Viewer is one container's filesystem view. Reads resolve lazily;
// writes land in the diff layer. Viewer is safe for concurrent use.
type Viewer struct {
	imageRef string
	resolver Resolver

	mu     sync.Mutex
	mount  *overlay.Mount
	closed bool

	// reads counts total regular-file reads; faults counts reads that
	// had to pause on a placeholder (the lazy-fetch events of Fig 8/9);
	// stall accumulates the wall-clock time those pauses spent inside
	// the resolver — the per-container view of the store's demand-stall
	// accounting.
	reads  int64
	faults int64
	stall  time.Duration
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

// NewWithDiff remounts a stopped container: same index tree, existing
// diff layer.
func NewWithDiff(imageRef string, indexTree, diff *vfs.FS, resolver Resolver) *Viewer {
	return &Viewer{
		imageRef: imageRef,
		resolver: resolver,
		mount:    overlay.AttachSharedWithUpper(indexTree, diff),
	}
}

// ImageRef returns the image reference this viewer serves.
func (v *Viewer) ImageRef() string { return v.imageRef }

func (v *Viewer) checkOpen() error {
	if v.closed {
		return fmt.Errorf("viewer %s: %w", v.imageRef, ErrStopped)
	}
	return nil
}

// readLocked counts one read of the regular file at the clean path p and
// returns its content as the mount holds it and, when that is an index
// placeholder still to be materialized (lazy), the record it carries.
// Data written by the container itself is returned verbatim even if it
// happens to look like a placeholder: only lower-layer (index) entries
// are fingerprint files. The caller holds v.mu.
func (v *Viewer) readLocked(p string) (data []byte, fp hashing.Fingerprint, size int64, lazy bool, err error) {
	if err := v.checkOpen(); err != nil {
		return nil, "", 0, false, err
	}
	v.reads++
	data, err = v.mount.ReadFile(p)
	if err != nil || v.mount.Upper().Exists(p) {
		return data, "", 0, false, err
	}
	fp, size, perr := index.ParsePlaceholder(data)
	return data, fp, size, perr == nil, nil
}

// fault is the pause of §IV: a read that found a placeholder asks the
// helper to make the file readable, then resumes. The caller holds v.mu;
// fault returns with it released. The helper may be downloading, so the
// lock is not held meanwhile: other threads of the container go on
// reading, and faulting, elsewhere.
func (v *Viewer) fault(p string, resolve func() ([]byte, error)) ([]byte, error) {
	v.faults++
	v.mu.Unlock()
	start := time.Now()
	data, err := resolve()
	elapsed := time.Since(start)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.stall += elapsed
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
// at the first level, and hard linked to the index", §III-D2).
func (v *Viewer) ReadFile(p string) ([]byte, error) {
	p = vfs.Clean(p)
	v.mu.Lock()
	data, fp, size, lazy, err := v.readLocked(p)
	if !lazy {
		v.mu.Unlock()
		return data, err // already materialized
	}
	return v.fault(p, func() ([]byte, error) {
		content, err := v.resolver.Resolve(v.imageRef, p, fp, size)
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
// models. An empty range reads nothing and fetches nothing.
func (v *Viewer) ReadAt(p string, off, n int64) ([]byte, error) {
	p = vfs.Clean(p)
	v.mu.Lock()
	data, fp, size, lazy, err := v.readLocked(p)
	if !lazy || off < 0 || n <= 0 {
		v.mu.Unlock()
		return sliceRange(data, off, n), err // materialized, or nothing asked for
	}
	return v.fault(p, func() ([]byte, error) {
		return v.resolver.ResolveRange(v.imageRef, p, fp, size, off, n)
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
	info := Info{Type: n.Type(), Mode: n.Mode(), Size: n.Size(), Target: n.Target()}
	if n.Type() == vfs.TypeRegular && !v.mount.Upper().Exists(p) {
		if _, size, err := index.ParsePlaceholder(n.Content().Data()); err == nil {
			info.Size = size
			info.Lazy = true
		}
	}
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

// Rename moves a regular file or symlink from oldp to newp, the way
// Overlay2 without redirect_dir does it: copy-up into the diff layer at
// the new name, whiteout the old. Renaming a regular index file
// materializes it first (the content must move into the writable layer).
func (v *Viewer) Rename(oldp, newp string) error {
	// Materializing may need the resolver, so take the lock per step.
	info, err := v.Stat(oldp)
	if err != nil {
		return err
	}
	switch info.Type {
	case vfs.TypeSymlink:
		target, err := v.Readlink(oldp)
		if err != nil {
			return err
		}
		if err := v.Symlink(target, newp); err != nil {
			return err
		}
	case vfs.TypeRegular:
		data, err := v.ReadFile(oldp)
		if err != nil {
			return err
		}
		if err := v.WriteFile(newp, data, info.Mode); err != nil {
			return err
		}
	default:
		return fmt.Errorf("viewer %s: rename %s: directories cannot be renamed without redirect_dir: %w",
			v.imageRef, vfs.Clean(oldp), vfs.ErrInvalid)
	}
	return v.Remove(oldp)
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
// destroying; Stats().Faults is exactly that count.
func (v *Viewer) Close() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.closed = true
}

// Stats reports read/fault counters. StallTime is the cumulative
// wall-clock time this container's reads spent paused in the resolver;
// faults served from the level-1 cache (e.g. after a profile-guided
// prefetch) contribute almost nothing, so it tracks the store's
// demand-stall accounting from the container's side.
type Stats struct {
	Reads     int64         `json:"reads"`
	Faults    int64         `json:"faults"`
	StallTime time.Duration `json:"stallTime"`
}

// Stats returns a snapshot of the viewer's counters.
func (v *Viewer) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return Stats{Reads: v.reads, Faults: v.faults, StallTime: v.stall}
}
