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
	"slices"
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
	name string
	typ  FileType
	mode fs.FileMode
	// pos is the position of a source's file among its directory's
	// entries (see from).
	pos uint32
	// content is a regular file's. Relink swaps it in place under the
	// tree's lock, and readers that hold no lock load it. It is nil on a
	// source's file until Content renders it.
	content  atomic.Pointer[Content]
	target   string // symlinks only
	children map[string]*Node
	// from, on a directory of a Source that has not been taken over,
	// holds its entries instead of children (see origin). On a source's
	// file it is its directory's, for good: with pos it locates the entry
	// the file renders.
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
// A source's file gets it from its source on the first call,
// which all readers of the node then share.
func (n *Node) Content() *Content {
	c := n.content.Load()
	if c != nil || n.typ != TypeRegular || n.from == nil {
		return c
	}
	n.content.CompareAndSwap(nil, newContent(n.from.src.FileData(n.from.dir, int(n.pos)), 1))
	return n.content.Load()
}

// Unrendered reports whether n is a source's file whose content is still
// its source's entry (neither Content nor Relink has set it), and then the
// source, the directory of it n is an entry of, and n's position there.
func (n *Node) Unrendered() (src Source, dir uint32, i int, ok bool) {
	if n.typ != TypeRegular || n.from == nil || n.content.Load() != nil {
		return nil, 0, 0, false
	}
	return n.from.src, n.from.dir, int(n.pos), true
}

// Size returns the byte size of a regular file, the length of a symlink
// target, and zero for directories.
func (n *Node) Size() int64 {
	switch n.typ {
	case TypeRegular:
		return n.Content().Size()
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
	names := make([]string, 0, n.NumChildren())
	for name := range n.children {
		names = append(names, name)
	}
	for _, c := range n.filled() {
		if c != nil {
			names = append(names, c.name)
		}
	}
	sort.Strings(names)
	return names
}

// Child returns the named child of a directory, or nil. It asks no
// Source: name does not escape.
func (n *Node) Child(name string) *Node {
	if n.typ != TypeDir {
		return nil
	}
	for _, c := range n.filled() {
		if c != nil && c.name == name {
			return c
		}
	}
	return n.children[name]
}

// NumChildren returns the number of entries in a directory.
func (n *Node) NumChildren() int {
	k := len(n.children)
	for _, c := range n.filled() {
		if c != nil {
			k++
		}
	}
	return k
}

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
	n.children[name] = fileNode(name, mode, newContent(data, 1))
}

// fileNode is a regular file holding c, whose link count counts it.
func fileNode(name string, mode fs.FileMode, c *Content) *Node {
	f := &Node{name: name, typ: TypeRegular, mode: mode.Perm()}
	f.content.Store(c)
	return f
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
// paths resolve. It names its directories by numbers of its own, and an
// entry by its position among its directory's, which are in ascending
// order of name. What it says of a directory never changes: its methods
// are called by several readers at once.
type Source interface {
	// Len returns how many entries directory dir has.
	Len(dir uint32) int
	// Find returns the position of the entry name of directory dir, if
	// it has one.
	Find(dir uint32, name string) (i int, found bool)
	// Entry describes the entry at position i of directory dir: its
	// name, type and mode, a symlink's target and a directory's number.
	// The node built for it is what AddDir, AddSymlink or AddFile would
	// build, but that a file's content is left to FileData and a
	// directory's entries to its number.
	Entry(dir uint32, i int) (name string, typ FileType, mode fs.FileMode, target string, sub uint32)
	// FileData returns the content of the regular file at position i of
	// directory dir, in a slice of its own.
	FileData(dir uint32, i int) []byte
	// Names returns the names of the entries of directory dir, by
	// position.
	Names(dir uint32) []string
}

// origin is a directory of a Source. The node of a directory that has one
// holds no children map: its entries are the source's, and nodes holds
// the ones paths have come to so far, a slot per position, nil until
// built. Whatever adds or removes a name takes the directory over first
// (own).
type origin struct {
	src   Source
	dir   uint32
	nodes []*Node
}

// newOrigin is directory dir of src, its slots made at its entry count.
func newOrigin(src Source, dir uint32) *origin {
	return &origin{src: src, dir: dir, nodes: make([]*Node, src.Len(dir))}
}

// filled returns the slots of a directory of a Source: nil where no node
// is built yet, and nil altogether for any other node.
func (n *Node) filled() []*Node {
	if n.typ != TypeDir || n.from == nil {
		return nil
	}
	return n.from.nodes
}

// node returns the entry at position i, building it if no path has come
// to it yet. The caller holds the FS lock exclusively, and so two lookups
// of one path end with one node.
func (o *origin) node(i int) *Node {
	if c := o.nodes[i]; c != nil {
		return c
	}
	name, typ, mode, target, sub := o.src.Entry(o.dir, i)
	c := &Node{name: name, typ: typ, mode: mode.Perm(), target: target}
	switch typ {
	case TypeDir:
		c.from = newOrigin(o.src, sub)
	case TypeRegular:
		c.from, c.pos = o, uint32(i)
	default:
		c.mode = 0o777
	}
	o.nodes[i] = c
	return c
}

// entry returns the entry name of the directory n, or nil. In a directory
// of a Source the name is found in the source, and its node is the one in
// the slot at its position: a miss needs no node, and a reader (fill
// false) takes one that is built. One that is not yet is built when the
// caller holds the FS lock exclusively and says so with fill, and a
// reader gets errUnfilled.
func (n *Node) entry(name string, fill bool) (*Node, error) {
	o := n.from
	if o == nil {
		return n.children[name], nil
	}
	i, ok := o.src.Find(o.dir, name)
	if !ok {
		return nil, nil
	}
	if o.nodes[i] == nil && !fill {
		return nil, errUnfilled
	}
	return o.node(i), nil
}

// own fills in everything the directory n has not yet got from its source
// and cuts it loose: the entries are n's, in a map, to add to and remove
// from. Directories below it stay as they are.
func (n *Node) own() {
	o := n.from
	if o == nil || n.typ != TypeDir {
		return
	}
	n.children = make(map[string]*Node, len(o.nodes))
	for i := range o.nodes {
		c := o.node(i)
		n.children[c.name] = c
	}
	n.from, o.nodes = nil, nil
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
// that a directory's entries may change (use ReadDirNames for a
// consistent listing of a live tree) and Relink swaps a regular file's
// Content in place (Content loads it atomically, and renders a source's
// file with one compare-and-swap).
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
	return &FS{root: &Node{typ: TypeDir, mode: 0o755, from: newOrigin(src, root)}, sourced: true}
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

// errUnfilled is walk's answer when only the source can say whether the
// path resolves, and the caller does not hold the lock a fill takes.
var errUnfilled = errors.New("directory not filled in")

// walk descends from the root along rel, a clean path without its
// leading slash ("" is the root), and returns the node there without
// following a trailing symlink. Segments are cut from rel in place, and
// the errors are the bare sentinels: a miss costs no allocation, and the
// caller that reports one wraps it with pathError on that return only.
//
// An entry of a Source's directory is built when the caller holds the
// lock exclusively and says so with fill; a reader's walk stops at one
// not built yet with errUnfilled (see Node.entry).
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
		next, err := cur.entry(name, fill)
		if err != nil {
			return nil, err
		}
		if cur = next; cur == nil {
			return nil, ErrNotExist
		}
	}
	return cur, nil
}

// find walks to the node at p without following a trailing symlink, for
// a reader, which holds no lock. Nodes are built under the exclusive
// lock only, so a walk that comes to one not built yet is made again
// under it: the second of two readers racing to a path finds the node
// the first one built.
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
		next, _ := cur.entry(name, true)
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
	parent.children[base] = fileNode(base, mode, c)
	return nil
}

// Relink swaps the content of the regular file at p for c, as a hard
// link, keeping the file's mode. It is PutContent for a caller that means
// "this file, if it is still there": p is resolved once, and when it no
// longer names a regular file nothing changes and Relink reports false.
//
// The node stays, and takes c in place: a reader that holds it, having
// found it without the lock, loads the one content or the other. The
// name stays too, so the directory goes on filling itself in from its
// source: a deploy relinks the files it reads, one in six.
func (f *FS) Relink(p string, c *Content) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	old, err := f.walk(Clean(p)[1:], true)
	if err != nil || old.typ != TypeRegular {
		return false
	}
	c.nlink.Add(1)
	if was := old.content.Swap(c); was != nil {
		was.nlink.Add(-1)
	}
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
	return n.Content().data, nil
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

// unlinkNode drops one reference from a non-directory node's content.
func (f *FS) unlinkNode(n *Node) {
	if c := n.content.Load(); c != nil {
		c.nlink.Add(-1)
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
		// What was never filled in holds no link to release.
		releaseTree(f.root)
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
	if c := n.content.Load(); c != nil {
		c.nlink.Add(-1)
		return
	}
	for _, c := range n.children {
		releaseTree(c)
	}
	for _, c := range n.filled() {
		if c != nil {
			releaseTree(c)
		}
	}
}

// Graft moves the entries of layer into f by the overlay rule of
// stacking a layer (tarstream.ApplyLayer states it), and spends layer:
// its nodes become f's and it is left empty. A layer entry named
// whiteout+name hides the entry name of its directory in the layers
// below, and one named opaque everything its directory holds there, as
// the Opaque flag of a directory below the root does. Such a marker is
// not moved, nor what it holds if it is a directory.
//
// In each directory what its markers hide goes first; then every other
// entry takes the place of what f holds at its name, except that a
// directory over a directory sets its mode and merges into it. A node
// moved in is made what a fresh one is: a directory not Opaque and with
// permission bits only, a symlink 0o777, and a file whose Content
// another node links too gets a Content of its own.
//
// No path is built or resolved. Modes are set on f's nodes in place: f
// must be the caller's alone while Graft runs.
func (f *FS) Graft(layer *FS, whiteout, opaque string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	layer.mu.Lock()
	defer layer.mu.Unlock()
	if layer.sourced {
		layer.root.ownTree()
	}
	if (graft{whiteout, opaque}).merge(f.root, layer.root, false) {
		f.sourced = false
	}
	layer.root, layer.sourced = New().root, false
}

// graft is one Graft's marker names.
type graft struct{ whiteout, opaque string }

// hides reports whether name is a marker, and which entry of its
// directory it hides: "" none, "." all.
func (g graft) hides(name string) (hidden string, marker bool) {
	if name == g.opaque {
		return ".", true
	}
	hidden, marker = strings.CutPrefix(name, g.whiteout)
	if !marker || hidden == "." || hidden == ".." {
		return "", marker // names nothing a layer below can hold
	}
	return hidden, true
}

// merge moves the entries of the layer directory l into the directory
// b, and reports whether l hid all b held below (opaque, or by an opaque
// marker): then b holds l's entries alone, and its mode and flag are the
// caller's to set as a fresh directory's.
func (g graft) merge(b, l *Node, opaque bool) (cleared bool) {
	b.own()
	cleared = opaque
	for name := range l.children {
		if hidden, _ := g.hides(name); hidden == "." {
			cleared = true
		} else if o := b.children[hidden]; o != nil {
			releaseTree(o)
			delete(b.children, hidden)
		}
	}
	if cleared {
		for _, o := range b.children {
			releaseTree(o)
		}
		b.children, l.children = l.children, nil
		for name, c := range b.children {
			g.adopt(name, c, b)
		}
		return true
	}
	for name, c := range l.children {
		old := b.children[name]
		if _, ok := g.hides(name); ok {
			continue
		} else if c.typ == TypeDir && old != nil && old.typ == TypeDir {
			if old.mode = c.mode; g.merge(old, c, c.Opaque) {
				old.mode, old.Opaque = c.mode.Perm(), false
			}
			continue
		} else if old != nil {
			releaseTree(old)
		}
		b.children[name] = c
		g.adopt(name, c, b)
	}
	return false
}

// adopt makes the entry name of the directory in, n, moved in where f
// held nothing below it, what a fresh node is, or drops it if it is a
// marker: there is nothing below it to hide.
func (g graft) adopt(name string, n, in *Node) {
	if _, ok := g.hides(name); ok {
		delete(in.children, name)
		return
	}
	switch n.typ {
	case TypeDir:
		n.mode, n.Opaque = n.mode.Perm(), false
		for name, c := range n.children {
			g.adopt(name, c, n)
		}
	case TypeRegular:
		if c := n.content.Load(); c != nil && c.Nlink() != 1 {
			n.content.Store(newContent(c.data, 1))
		}
		n.mode = n.mode.Perm()
	default:
		n.mode = 0o777
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
		pos:    n.pos,
		target: n.target,
		Opaque: n.Opaque,
		from:   n.from, // what is not filled in or rendered yet, the clone does for itself
	}
	if nc := n.content.Load(); nc != nil {
		c.content.Store(newContent(nc.data, 1))
	}
	if n.typ != TypeDir {
		return c
	}
	if o := n.from; o != nil {
		c.from = &origin{src: o.src, dir: o.dir, nodes: slices.Clone(o.nodes)}
		for i, child := range o.nodes {
			if child != nil {
				c.from.nodes[i] = cloneNode(child)
			}
		}
		return c
	}
	c.children = make(map[string]*Node, len(n.children))
	for name, child := range n.children {
		c.children[name] = cloneNode(child)
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
