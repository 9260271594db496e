// Package vfs implements the in-memory filesystem substrate used throughout
// the Gear reproduction. It models the subset of POSIX semantics that
// container images rely on: directories, regular files, symbolic links,
// hard links (shared, reference-counted content), permission bits, and a
// deterministic tree walk.
//
// All container layers, overlay mounts, Gear indexes, and container root
// filesystems in this repository are vfs trees. Keeping the filesystem in
// memory is the substitution for the paper's on-disk EXT4/Overlay2 stack;
// the structural operations (lookup, link, whiteout, copy-up) are identical.
package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Sentinel errors returned by filesystem operations. They are comparable
// with errors.Is after being wrapped with path context.
var (
	ErrNotExist = errors.New("file does not exist")
	ErrExist    = errors.New("file already exists")
	ErrNotDir   = errors.New("not a directory")
	ErrIsDir    = errors.New("is a directory")
	ErrNotEmpty = errors.New("directory not empty")
	ErrInvalid  = errors.New("invalid argument")
)

// FileType identifies the kind of a filesystem node.
type FileType int

// Node types. TypeRegular covers both ordinary files and Gear fingerprint
// placeholders (the distinction lives in higher layers).
const (
	TypeRegular FileType = iota + 1
	TypeDir
	TypeSymlink
)

// String returns a short human-readable name for the type.
func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "regular"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("FileType(%d)", int(t))
	}
}

// Content is reference-counted regular-file content. Hard links share one
// Content; the link count tracks how many nodes point at it. The Gear local
// cache exploits this to "hard link" pool files into container indexes
// exactly as the paper's three-level storage structure does (§III-D1).
//
// The link count is atomic because one Content can be linked into several
// trees at once (the shared cache pins, each image's index tree links),
// and the cache reads Nlink under its own lock while a store links or
// unlinks under another.
type Content struct {
	data  []byte
	nlink atomic.Int64
}

// Data returns the content bytes. Callers must not mutate the result.
func (c *Content) Data() []byte { return c.data }

// Size returns the content length in bytes.
func (c *Content) Size() int64 { return int64(len(c.data)) }

// Nlink returns the current hard-link count.
func (c *Content) Nlink() int { return int(c.nlink.Load()) }

// NewContent wraps data in a Content with a zero link count. The caller
// owns data and must not mutate it afterwards.
func NewContent(data []byte) *Content { return &Content{data: data} }

// newContent wraps data with an initial link count.
func newContent(data []byte, nlink int64) *Content {
	c := &Content{data: data}
	c.nlink.Store(nlink)
	return c
}

// Node is a single entry in the filesystem tree.
type Node struct {
	name     string
	typ      FileType
	mode     fs.FileMode
	content  *Content // regular files only
	target   string   // symlinks only
	children map[string]*Node
	// from, on a directory that has not been filled in, is where the
	// entries children does not hold yet come from (see Source).
	from *origin
	// Opaque marks a directory that hides lower-layer entries under
	// overlay union semantics (Overlay2's "trusted.overlay.opaque").
	Opaque bool
}

// Name returns the node's base name ("" for the root).
func (n *Node) Name() string { return n.name }

// Type returns the node type.
func (n *Node) Type() FileType { return n.typ }

// Mode returns the permission bits.
func (n *Node) Mode() fs.FileMode { return n.mode }

// SetMode replaces the permission bits.
func (n *Node) SetMode(m fs.FileMode) { n.mode = m }

// Target returns the symlink target; empty for non-symlinks.
func (n *Node) Target() string { return n.target }

// Content returns the shared content of a regular file, nil otherwise.
func (n *Node) Content() *Content { return n.content }

// Size returns the byte size of a regular file, the length of a symlink
// target, and zero for directories.
func (n *Node) Size() int64 {
	switch n.typ {
	case TypeRegular:
		return n.content.Size()
	case TypeSymlink:
		return int64(len(n.target))
	default:
		return 0
	}
}

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.typ == TypeDir }

// ChildNames, Child and NumChildren navigate the entries a directory
// node holds. A directory of a tree that fills itself in (see Source)
// holds only those some path has resolved to so far: reach such a tree
// through the FS methods, or Walk it first.

// ChildNames returns the sorted names of a directory's entries.
func (n *Node) ChildNames() []string {
	if n.typ != TypeDir {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Child returns the named child of a directory, or nil.
func (n *Node) Child(name string) *Node {
	if n.typ != TypeDir {
		return nil
	}
	return n.children[name]
}

// NumChildren returns the number of entries in a directory.
func (n *Node) NumChildren() int { return len(n.children) }

// AddDir, AddFile and AddSymlink put a new entry into the directory n,
// which the caller already holds — no path is resolved. They are how a
// tree known to be well formed (a validated Gear index, say) is built in
// one step per entry. The caller vouches for what the path-taking FS
// methods check: name is one clean segment, nothing else is using it in
// n, and no other goroutine can reach the tree yet.

// AddDir adds an empty directory expected to get hint entries and
// returns it.
func (n *Node) AddDir(name string, mode fs.FileMode, hint int) *Node {
	d := &Node{
		name:     name,
		typ:      TypeDir,
		mode:     mode.Perm(),
		children: make(map[string]*Node, hint),
	}
	n.children[name] = d
	return d
}

// AddFile adds a regular file holding data, which the tree now owns.
func (n *Node) AddFile(name string, data []byte, mode fs.FileMode) {
	n.children[name] = &Node{
		name:    name,
		typ:     TypeRegular,
		mode:    mode.Perm(),
		content: newContent(data, 1),
	}
}

// AddSymlink adds a symbolic link to target.
func (n *Node) AddSymlink(name, target string) {
	n.children[name] = &Node{
		name:   name,
		typ:    TypeSymlink,
		mode:   0o777,
		target: target,
	}
}

// Source is a directory tree kept in some other form — a validated Gear
// index blob — that an FS fills itself in from, an entry at a time, as
// paths resolve. It names its directories by numbers of its own, and what
// it says of a directory never changes: its methods are called by several
// readers at once.
type Source interface {
	// Names returns the names of the entries of directory dir, ascending.
	Names(dir uint32) []string
	// Fill adds the entry name of directory dir to into, with AddFile,
	// AddSymlink or AddSourceDir; dir has no such entry if it adds none.
	Fill(dir uint32, name string, into *Node)
}

// origin is a directory of a Source. The entries of a directory node that
// has one are the source's: children holds the ones filled in so far, and
// anything that adds or removes a name takes the directory over first.
type origin struct {
	src Source
	dir uint32
}

// AddSourceDir is AddDir of a directory whose entries are those of src's
// directory dir, none of them filled in yet.
func (n *Node) AddSourceDir(name string, mode fs.FileMode, src Source, dir uint32) {
	n.children[name] = sourceDir(name, mode, src, dir)
}

func sourceDir(name string, mode fs.FileMode, src Source, dir uint32) *Node {
	return &Node{name: name, typ: TypeDir, mode: mode.Perm(), children: make(map[string]*Node), from: &origin{src, dir}}
}

// fill returns the entry name of the directory n, filling it in from the
// source if it is not there yet, or nil. The caller holds the FS lock
// exclusively, and so two lookups of one path end with one node.
func (n *Node) fill(name string) *Node {
	if c := n.children[name]; c != nil || n.from == nil {
		return c
	}
	n.from.src.Fill(n.from.dir, name, n)
	return n.children[name]
}

// own fills in everything the directory n has not yet got from its source
// and cuts it loose: the entries are n's to add to and remove from.
// Directories below it stay as they are.
func (n *Node) own() {
	if n.from == nil {
		return
	}
	for _, name := range n.from.src.Names(n.from.dir) {
		n.fill(name)
	}
	n.from = nil
}

// ownTree is own of n and every directory below it.
func (n *Node) ownTree() {
	n.own()
	for _, c := range n.children {
		if c.typ == TypeDir {
			c.ownTree()
		}
	}
}

// FS is an in-memory filesystem rooted at "/". The zero value is not
// usable; construct with New.
//
// FS methods are safe for concurrent use: lookups take a shared lock and
// mutations an exclusive one, so one tree can be read by many container
// viewers while the Gear driver links fetched files into it (§III-D2's
// shared index directory). Nodes returned by Stat/Walk are immutable
// snapshots — mutations replace nodes rather than editing them — except
// for directory nodes, whose child sets may change; use ReadDirNames for
// a consistent listing of a live tree.
type FS struct {
	mu   sync.RWMutex
	root *Node
	// sourced is set while some directory may still have entries to fill
	// in from a Source: what an operation on the whole tree checks before
	// it looks for them.
	sourced bool
}

// New returns an empty filesystem containing only the root directory.
func New() *FS {
	return &FS{root: &Node{
		typ:      TypeDir,
		mode:     0o755,
		children: make(map[string]*Node),
	}}
}

// NewFrom returns a filesystem whose tree is that of src under its
// directory root, filled in as it is used: a path builds the nodes along
// it the first time it resolves, ReadDirNames lists from the source, and
// an operation on the whole tree (Walk, Stats) fills in the rest first.
func NewFrom(src Source, root uint32) *FS {
	return &FS{root: sourceDir("", 0o755, src, root), sourced: true}
}

// Root returns the root directory node. The caller must ensure the tree
// is quiescent (no concurrent mutators) while navigating from it, or
// hold the read lock. Below the root of a tree made by NewFrom are the
// nodes filled in so far; Walk it first to navigate all of it.
func (f *FS) Root() *Node { return f.root }

// RLock and RUnlock bracket navigation from Root by a caller that walks
// the nodes itself (the union lookup in package overlay, which reads
// several entries of each directory on its way down) while other
// goroutines may mutate the tree through the FS methods. No FS method
// may be called in between.
func (f *FS) RLock() { f.mu.RLock() }

// RUnlock releases RLock.
func (f *FS) RUnlock() { f.mu.RUnlock() }

// pathError wraps err with the operation and path for context.
func pathError(op, p string, err error) error {
	return fmt.Errorf("%s %s: %w", op, p, err)
}

// Clean normalizes p to a slash-rooted clean path ("/a/b"): the result is
// path.Clean("/" + p). An empty path or "." becomes "/". A path that is
// already rooted and clean — what every caller inside the repository
// passes after its first Clean — is returned as it is, without a copy.
func Clean(p string) string {
	if isClean(p) {
		return p
	}
	return path.Clean("/" + p)
}

// isClean reports whether p is rooted and has no empty, "." or ".."
// segment and no trailing slash, so that path.Clean("/"+p) == p.
func isClean(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	for rest := p[1:]; rest != ""; {
		var name string
		var more bool
		name, rest, more = strings.Cut(rest, "/")
		if name == "" || name == "." || name == ".." || (more && rest == "") {
			return false
		}
	}
	return true
}

// Split breaks a cleaned path into its segments; "/" yields nil.
func Split(p string) []string {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	return strings.Split(p[1:], "/")
}

// errUnfilled is walk's answer when only the source can say whether the
// path resolves, and the caller does not hold the lock a fill takes.
var errUnfilled = errors.New("directory not filled in")

// walk descends from the root along rel, a clean path without its
// leading slash ("" is the root), and returns the node there without
// following a trailing symlink. Segments are cut from rel in place, and
// the errors are the bare sentinels: a miss costs no allocation, and the
// caller that reports one wraps it with pathError on that return only.
//
// An entry still in a directory's source is filled in when the caller
// holds the lock exclusively and says so with fill; a reader's walk stops
// there with errUnfilled.
func (f *FS) walk(rel string, fill bool) (*Node, error) {
	cur := f.root
	for rel != "" {
		// Intermediate symlinks are not followed: images are
		// self-contained trees and layer application operates on
		// literal paths, matching tar extraction semantics.
		if cur.typ != TypeDir {
			return nil, ErrNotDir
		}
		var name string
		name, rel, _ = strings.Cut(rel, "/")
		next := cur.children[name]
		if next == nil && cur.from != nil {
			if !fill {
				return nil, errUnfilled
			}
			next = cur.fill(name)
		}
		if cur = next; cur == nil {
			return nil, ErrNotExist
		}
	}
	return cur, nil
}

// lookup walks to the node at p without following a trailing symlink,
// for a caller that holds the lock exclusively.
func (f *FS) lookup(p string) (*Node, error) {
	return f.walk(Clean(p)[1:], true)
}

// find is lookup for a reader, which holds no lock. Nodes are built under
// the exclusive lock only, so a walk that comes to one not built yet is
// made again under it: the second of two readers racing to a path finds
// the node the first one built.
func (f *FS) find(p string) (*Node, error) {
	rel := Clean(p)[1:]
	f.mu.RLock()
	n, err := f.walk(rel, false)
	f.mu.RUnlock()
	if err == errUnfilled {
		f.mu.Lock()
		n, err = f.walk(rel, true)
		f.mu.Unlock()
	}
	return n, err
}

// lookupParent returns the directory containing p, which is the caller's
// to add entries to and remove them from, and p's base name.
func (f *FS) lookupParent(p string) (*Node, string, error) {
	p = Clean(p)
	if p == "/" {
		return nil, "", ErrInvalid
	}
	i := strings.LastIndexByte(p, '/')
	parent, err := f.walk(p[1:max(i, 1)], true)
	if err != nil {
		return nil, "", err
	}
	if parent.typ != TypeDir {
		return nil, "", ErrNotDir
	}
	parent.own()
	return parent, p[i+1:], nil
}

// Stat returns the node at p.
func (f *FS) Stat(p string) (*Node, error) {
	n, err := f.find(p)
	if err != nil {
		return nil, pathError("stat", Clean(p), err)
	}
	return n, nil
}

// Lookup returns the node at p, or nil if there is none. It is Stat for
// callers to whom a miss is an answer rather than a failure: no error is
// built for one.
func (f *FS) Lookup(p string) *Node {
	n, _ := f.find(p)
	return n
}

// Exists reports whether a node exists at p.
func (f *FS) Exists(p string) bool { return f.Lookup(p) != nil }

// ReadDirNames returns the sorted entry names of the directory at p. It
// is the race-safe way to list a directory of a live tree (a directory
// Node's own ChildNames is only stable on quiescent trees).
//
// A directory not filled in is listed from its source, and stays so.
func (f *FS) ReadDirNames(p string) ([]string, error) {
	n, err := f.find(p)
	if err != nil {
		return nil, pathError("readdir", Clean(p), err)
	}
	if n.typ != TypeDir {
		return nil, pathError("readdir", Clean(p), ErrNotDir)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if n.from != nil {
		return n.from.src.Names(n.from.dir), nil
	}
	return n.ChildNames(), nil
}

// Mkdir creates a single directory at p.
func (f *FS) Mkdir(p string, mode fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, base, err := f.lookupParent(p)
	if err != nil {
		return pathError("mkdir", Clean(p), err)
	}
	if _, ok := parent.children[base]; ok {
		return pathError("mkdir", Clean(p), ErrExist)
	}
	parent.AddDir(base, mode, 0)
	return nil
}

// MkdirAll creates the directory at p along with any missing parents.
// Existing directories along the way are left untouched.
func (f *FS) MkdirAll(p string, mode fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = Clean(p)
	cur := f.root
	for rel := p[1:]; rel != ""; {
		var name string
		name, rel, _ = strings.Cut(rel, "/")
		next := cur.fill(name)
		if next == nil {
			cur.own()
			next = cur.AddDir(name, mode, 0)
		} else if next.typ != TypeDir {
			return pathError("mkdir", p, ErrNotDir)
		}
		cur = next
	}
	return nil
}

// WriteFile creates or replaces the regular file at p with data. The parent
// directory must exist. Replacing breaks any hard links (a fresh Content is
// installed), matching write-through-rename semantics used by tar unpack.
func (f *FS) WriteFile(p string, data []byte, mode fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, base, err := f.lookupParent(p)
	if err != nil {
		return pathError("write", Clean(p), err)
	}
	if old, ok := parent.children[base]; ok {
		if old.typ == TypeDir {
			return pathError("write", Clean(p), ErrIsDir)
		}
		f.unlinkNode(old)
	}
	parent.AddFile(base, data, mode)
	return nil
}

// PutContent installs shared content at p, creating a hard link to it.
// It is the primitive behind the Gear cache's link-into-index operation.
func (f *FS) PutContent(p string, c *Content, mode fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.putContent(p, c, mode)
}

// putContent is PutContent with f.mu already held.
func (f *FS) putContent(p string, c *Content, mode fs.FileMode) error {
	parent, base, err := f.lookupParent(p)
	if err != nil {
		return pathError("link", Clean(p), err)
	}
	if old, ok := parent.children[base]; ok {
		if old.typ == TypeDir {
			return pathError("link", Clean(p), ErrIsDir)
		}
		f.unlinkNode(old)
	}
	c.nlink.Add(1)
	parent.children[base] = &Node{
		name:    base,
		typ:     TypeRegular,
		mode:    mode.Perm(),
		content: c,
	}
	return nil
}

// Relink swaps the content of the regular file at p for c, as a hard
// link, keeping the file's mode. It is PutContent for a caller that means
// "this file, if it is still there": p is resolved once, and when it no
// longer names a regular file nothing changes and Relink reports false.
//
// The name stays, so the directory goes on filling itself in from its
// source: a deploy relinks the files it reads, one in six.
func (f *FS) Relink(p string, c *Content) bool {
	p = Clean(p)
	if p == "/" {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i := strings.LastIndexByte(p, '/')
	parent, err := f.walk(p[1:max(i, 1)], true)
	if err != nil || parent.typ != TypeDir {
		return false
	}
	base := p[i+1:]
	old := parent.fill(base)
	if old == nil || old.typ != TypeRegular {
		return false
	}
	f.unlinkNode(old)
	c.nlink.Add(1)
	parent.children[base] = &Node{name: base, typ: TypeRegular, mode: old.mode, content: c}
	return true
}

// ReadFile returns the content bytes of the regular file at p. The result
// must not be mutated.
func (f *FS) ReadFile(p string) ([]byte, error) {
	n, err := f.find(p)
	if err != nil {
		return nil, pathError("read", Clean(p), err)
	}
	if n.typ == TypeDir {
		return nil, pathError("read", Clean(p), ErrIsDir)
	}
	if n.typ != TypeRegular {
		return nil, pathError("read", Clean(p), ErrInvalid)
	}
	return n.content.data, nil
}

// Symlink creates a symbolic link at p pointing at target.
func (f *FS) Symlink(target, p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, base, err := f.lookupParent(p)
	if err != nil {
		return pathError("symlink", Clean(p), err)
	}
	if old, ok := parent.children[base]; ok {
		if old.typ == TypeDir {
			return pathError("symlink", Clean(p), ErrIsDir)
		}
		f.unlinkNode(old)
	}
	parent.AddSymlink(base, target)
	return nil
}

// Link creates a hard link at newp to the regular file at oldp.
func (f *FS) Link(oldp, newp string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookup(oldp)
	if err != nil {
		return pathError("link", Clean(oldp), err)
	}
	if n.typ != TypeRegular {
		return pathError("link", Clean(oldp), ErrInvalid)
	}
	return f.putContent(newp, n.content, n.mode)
}

// unlinkNode drops one reference from a non-directory node's content.
func (f *FS) unlinkNode(n *Node) {
	if n.typ == TypeRegular && n.content != nil {
		n.content.nlink.Add(-1)
	}
}

// Remove deletes the file, symlink, or empty directory at p.
func (f *FS) Remove(p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, base, err := f.lookupParent(p)
	if err != nil {
		return pathError("remove", Clean(p), err)
	}
	n, ok := parent.children[base]
	if !ok {
		return pathError("remove", Clean(p), ErrNotExist)
	}
	if n.own(); n.typ == TypeDir && len(n.children) > 0 {
		return pathError("remove", Clean(p), ErrNotEmpty)
	}
	f.unlinkNode(n)
	delete(parent.children, base)
	return nil
}

// RemoveAll deletes p and everything below it. Removing "/" empties the
// filesystem. A missing path is not an error, matching os.RemoveAll.
func (f *FS) RemoveAll(p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = Clean(p)
	if p == "/" {
		for _, c := range f.root.children {
			releaseTree(c)
		}
		// What was never filled in holds no link to release.
		f.root.children, f.root.from, f.sourced = make(map[string]*Node), nil, false
		return nil
	}
	parent, base, err := f.lookupParent(p)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil
		}
		return pathError("removeall", p, err)
	}
	n, ok := parent.children[base]
	if !ok {
		return nil
	}
	releaseTree(n)
	delete(parent.children, base)
	return nil
}

// releaseTree walks a subtree dropping content references.
func releaseTree(n *Node) {
	if n.typ == TypeRegular && n.content != nil {
		n.content.nlink.Add(-1)
		return
	}
	for _, c := range n.children {
		releaseTree(c)
	}
}

// WalkFunc visits one node during a Walk. p is the full cleaned path.
// Returning an error aborts the walk and is returned from Walk.
type WalkFunc func(p string, n *Node) error

// Walk visits every node in deterministic (pre-order, lexicographic)
// order, starting at the root. The root itself is not visited. The walk
// holds the tree's read lock, so fn must not mutate the same FS.
//
// A tree that fills itself in from a Source is filled in whole first.
func (f *FS) Walk(fn WalkFunc) error {
	f.mu.RLock()
	if f.sourced {
		f.mu.RUnlock()
		f.mu.Lock()
		f.root.ownTree()
		f.sourced = false
		f.mu.Unlock()
		f.mu.RLock()
	}
	defer f.mu.RUnlock()
	return walkNode("", f.root, fn)
}

func walkNode(prefix string, dir *Node, fn WalkFunc) error {
	for _, name := range dir.ChildNames() {
		child := dir.children[name]
		p := prefix + "/" + name
		if err := fn(p, child); err != nil {
			return err
		}
		if child.typ == TypeDir {
			if err := walkNode(p, child, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the filesystem. Regular-file content is
// shared structurally (copy-on-write at the node level): clones get fresh
// Content wrappers over the same byte slices, so mutating one tree never
// disturbs the other's link counts.
func (f *FS) Clone() *FS {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return &FS{root: cloneNode(f.root), sourced: f.sourced}
}

func cloneNode(n *Node) *Node {
	c := &Node{
		name:   n.name,
		typ:    n.typ,
		mode:   n.mode,
		target: n.target,
		Opaque: n.Opaque,
		from:   n.from, // what is not filled in yet, the clone fills in for itself
	}
	if n.typ == TypeRegular {
		c.content = newContent(n.content.data, 1)
	}
	if n.typ == TypeDir {
		c.children = make(map[string]*Node, len(n.children))
		for name, child := range n.children {
			c.children[name] = cloneNode(child)
		}
	}
	return c
}

// Stats summarizes a filesystem tree.
type Stats struct {
	Files    int   // regular files
	Dirs     int   // directories (excluding the root)
	Symlinks int   // symbolic links
	Bytes    int64 // total regular-file bytes (hard links counted once per node)
}

// Stats walks the tree and returns aggregate counts.
func (f *FS) Stats() Stats {
	var s Stats
	_ = f.Walk(func(_ string, n *Node) error {
		switch n.typ {
		case TypeRegular:
			s.Files++
			s.Bytes += n.Size()
		case TypeDir:
			s.Dirs++
		case TypeSymlink:
			s.Symlinks++
		}
		return nil
	})
	return s
}
