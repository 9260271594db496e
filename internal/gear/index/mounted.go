package index

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// Mounted is an index in the form a client installs it: the placeholder
// tree containers mount and the chunk tables faults are resolved with.
// It is what ToTree and ChunkMap make of an Index, and when it comes from
// a blob (DecodeMounted, MountImage) no Index was built on the way: the
// Entry tree is derived from the retained blob if and when Index is
// called.
type Mounted struct {
	Name   string
	Tag    string
	Config imagefmt.Config
	// Tree is the placeholder filesystem (see ToTree). Faults relink its
	// files, so it forgets fingerprints as it is used; Index does not.
	Tree *vfs.FS
	// Chunks maps the fingerprint of every chunked file to its chunk list
	// (see ChunkMap); nil when no file is chunked.
	Chunks map[hashing.Fingerprint][]Chunk

	// blob is the validated binary index the tree fills itself in from,
	// which the tree's names and targets alias.
	blob string
	once sync.Once
	ix   *Index
	err  error
}

// Reference returns the canonical "name:tag" reference.
func (m *Mounted) Reference() string { return m.Name + ":" + m.Tag }

// Index returns the index as an Entry tree: the one Mount was called on,
// or the retained blob decoded, once, on the first call.
func (m *Mounted) Index() (*Index, error) {
	m.once.Do(func() {
		if m.ix == nil {
			m.ix, m.err = decodeIndex(m.blob)
		}
	})
	return m.ix, m.err
}

// Mount renders the index in its installed form.
func (ix *Index) Mount() (*Mounted, error) {
	tree, err := ix.ToTree() // validates ix
	if err != nil {
		return nil, err
	}
	return &Mounted{Name: ix.Name, Tag: ix.Tag, Config: ix.Config, Tree: tree, Chunks: ix.ChunkMap(), ix: ix}, nil
}

// MountImage is FromImage and Mount in one pass over the index blob, with
// no Index in between: what a deploy does with the index image it pulled.
func MountImage(img *imagefmt.Image) (*Mounted, error) {
	blob, err := imageBlob(img)
	if err != nil {
		return nil, err
	}
	return DecodeMounted(blob)
}

// DecodeMounted decodes a binary index straight into its installed form.
// It accepts exactly the blobs DecodeBinary accepts, and the tree and
// chunk tables are the ones ToTree and ChunkMap give for the decoded
// index. The walk over the blob validates every entry and builds none: it
// leaves a table of where each directory's entries lie, and the tree
// fills itself in from that and the blob (see view) as paths resolve.
// blob is retained: the tree is read out of it, and Index decodes it.
// Like DecodeBinary, it trusts no count read from the input for more
// memory than the input could back.
func DecodeMounted(blob string) (*Mounted, error) {
	if uint64(len(blob)) >= dirRef {
		return nil, fmt.Errorf("index: decode binary: %d bytes are more than a mounted index addresses: %w", len(blob), ErrCorrupt)
	}
	d := decoder{str: blob}
	m := &Mounted{blob: blob}
	var err error
	if m.Name, m.Tag, m.Config, err = d.header(); err != nil {
		return nil, err
	}
	pending := pendingPool.Get().(*[]uint32)
	into := viewSink{d: &d, refs: make([]uint32, 0, d.left()/usualEntryBytes), pending: (*pending)[:0]}
	err = d.tree(&into)
	if cap(into.pending) <= maxPooledPending {
		*pending = into.pending
		pendingPool.Put(pending)
	}
	if err != nil {
		return nil, err
	}
	m.Tree, m.Chunks = vfs.NewFrom(&view{blob: blob, refs: into.refs}, into.root), into.chunks
	return m, nil
}

// pendingPool keeps a viewSink's pending refs from one mount to the next:
// each mount grows them to the most entries its open directories hold at
// once, and a daemon mounts the same few images over and over.
var pendingPool = sync.Pool{New: func() any { return new([]uint32) }}

// maxPooledPending bounds what the pool keeps: an index that needed more
// pending refs (4 bytes each) than this is let go with its walk.
const maxPooledPending = 1 << 16

// view is a validated index blob as a vfs.Source: the tree is the blob's,
// and refs says where in it each directory's entries are, which the
// pre-order layout does not (a directory's entries lie apart, each
// followed by everything below it).
//
// A directory is a run of refs — the offset of its entry in the blob, how
// many entries it has, and a ref for each, in the blob's order, which is
// ascending by name — and is named by the index of the first of them. The
// ref of a file or symlink is the offset of its entry in the blob; the ref
// of a directory is its name in refs, marked dirRef. That is 4 bytes an
// entry and 8 more a directory, and nothing else is kept per entry: a
// node is built when a path first resolves to it.
type view struct {
	blob string
	refs []uint32
}

// dirRef marks the ref of a directory. Offsets into the blob, and into
// refs, which is shorter, stay below it.
const dirRef = 1 << 31

// usualEntryBytes is under what a ref stands for in an index of files
// with short names and plain fingerprints (a file named in eight letters
// is 32 bytes, and a directory has three refs): refs is sized by it, so
// as not to be copied once it is nearly full, and grows by the entries
// that arrive when they are smaller still.
const usualEntryBytes = 28

// entries returns the refs of the entries of directory dir.
func (v *view) entries(dir uint32) []uint32 {
	return v.refs[dir+2 : dir+2+v.refs[dir+1]]
}

// at returns a decoder standing at the entry ref refers to, and its name.
// The blob was walked to the end once: reading it again cannot fail.
func (v *view) at(ref uint32) (decoder, string) {
	if ref&dirRef != 0 {
		ref = v.refs[ref&^dirRef]
	}
	d := decoder{str: v.blob, pos: int(ref)}
	name, _ := d.readString()
	return d, name
}

// name returns the name of the entry ref refers to, read in place: a
// name shorter than 128 bytes is its length's one byte and itself.
func (v *view) name(ref uint32) string {
	if ref&dirRef != 0 {
		ref = v.refs[ref&^dirRef]
	}
	if n := int(v.blob[ref]); n < 0x80 {
		return v.blob[ref+1 : int(ref)+1+n]
	}
	_, name := v.at(ref)
	return name
}

// Len implements vfs.Source.
func (v *view) Len(dir uint32) int { return int(v.refs[dir+1]) }

// Names implements vfs.Source.
func (v *view) Names(dir uint32) []string {
	refs := v.entries(dir)
	names := make([]string, len(refs))
	for i, ref := range refs {
		names[i] = v.name(ref)
	}
	return names
}

// Find implements vfs.Source: a binary search of the directory's names.
func (v *view) Find(dir uint32, name string) (int, bool) {
	refs := v.entries(dir)
	return sort.Find(len(refs), func(i int) int { return strings.Compare(name, v.name(refs[i])) })
}

// Entry implements vfs.Source: the node ToTree builds for the entry, but
// that a file's record is left to FileData. Its name and target alias
// the blob.
func (v *view) Entry(dir uint32, i int) (name string, typ vfs.FileType, mode fs.FileMode, target string, sub uint32) {
	ref := v.entries(dir)[i]
	d, name := v.at(ref)
	t, _ := d.readByte()
	m, _ := d.readUvarint()
	if typ = vfs.FileType(t); typ == vfs.TypeSymlink {
		target, _ = d.readString()
	}
	return name, typ, fs.FileMode(m), target, ref &^ dirRef
}

// FileData implements vfs.Source: the record ToTree writes for the file,
// in a slice of its exact size, as ToTree's are.
func (v *view) FileData(dir uint32, i int) []byte {
	fp, size := v.file(dir, i)
	var buf [maxRecordLen]byte
	record := appendPlaceholder(buf[:0], fp, size)
	own := make([]byte, len(record))
	copy(own, record)
	return own
}

// file returns the fingerprint and size of the file at position i of
// directory dir.
func (v *view) file(dir uint32, i int) (fpRef, int64) {
	d, _ := v.at(v.entries(dir)[i])
	_, _ = d.readByte()
	_, _ = d.readUvarint()
	fp, _ := d.readFingerprint()
	size, _ := d.readUvarint()
	return fp, int64(size)
}

// Stub is what a placeholder of an index tree records: the Gear file it
// stands for. StubOf reads it where it lies, in the blob or in the
// record, and Fingerprint writes the fingerprint out.
type Stub struct {
	Size int64
	fp   fpRef  // in the blob,
	text []byte // or in a record
}

// Fingerprint returns the fingerprint of the Gear file.
func (s Stub) Fingerprint() hashing.Fingerprint {
	if s.text != nil {
		return hashing.Fingerprint(s.text)
	}
	if !s.fp.raw {
		return hashing.Fingerprint(s.fp.s)
	}
	var dst [hexLen]byte
	return hashing.Fingerprint(s.fp.appendText(dst[:0]))
}

// StubOf reports whether n, a regular file of an index tree, is still a
// placeholder — no fault has linked its Gear file over it — and then what
// it records. A file of a mounted blob whose record nothing has read is
// answered from its entry in the blob; any other from the record it holds,
// as ParsePlaceholder reads one. Neither allocates.
func StubOf(n *vfs.Node) (Stub, bool) {
	if src, dir, i, ok := n.Unrendered(); ok {
		if v, ok := src.(*view); ok {
			fp, size := v.file(dir, i)
			return Stub{Size: size, fp: fp}, true
		}
	}
	text, size, err := parseRecord(n.Content().Data())
	if err != nil {
		return Stub{}, false
	}
	return Stub{Size: size, text: text}, true
}

// viewSink builds a view's refs and the chunk tables, and holds each
// entry, as it arrives, to what Validate requires of it — so that a node
// is only ever filled in under a name Validate would let through, which
// is what vfs.Node.AddFile and its kin ask of their caller.
type viewSink struct {
	d      *decoder
	chunks map[hashing.Fingerprint][]Chunk
	// open are the directories being read, innermost last.
	open []openDir
	// refs is the view's table: the directories read to their end so far.
	// pending are the refs of the entries seen so far of the open ones,
	// each directory's behind its parent's; a directory moves to refs when
	// it ends, since only then are its entries in one run. Both grow by the
	// entries that arrive, never by a count announced.
	refs, pending []uint32
	// root is the name of the root directory in refs.
	root uint32
}

type openDir struct {
	name string
	// last is the name of the entry seen last, "" before the first.
	last string
	// off is where the directory's entry starts in the blob, and first
	// where its entries start in pending.
	off   uint32
	first int
}

// at spells the path of the entry name in the directory being read, for
// an error message.
func (t *viewSink) at(name string) string {
	var b strings.Builder
	for _, o := range t.open {
		b.WriteString(o.name)
		b.WriteByte('/')
	}
	return b.String() + name
}

// enter checks name against the directory being read, and notes the entry
// as one of its own.
func (t *viewSink) enter(name string) error {
	if len(t.open) == 0 {
		return errors.New("root is not a directory")
	}
	in := &t.open[len(t.open)-1]
	if badName(name) {
		return fmt.Errorf("bad name %q in %s", name, t.at(""))
	}
	if name <= in.last { // no name is "": the first passes
		return fmt.Errorf("unsorted children in %s", t.at(""))
	}
	in.last = name
	t.pending = append(t.pending, uint32(t.d.start))
	return nil
}

func (t *viewSink) dir(name string, _ fs.FileMode, _ int) error {
	if len(t.open) == 0 {
		if name != "" {
			return fmt.Errorf("root is named %q", name)
		}
	} else if err := t.enter(name); err != nil {
		return err
	}
	t.open = append(t.open, openDir{name: name, off: uint32(t.d.start), first: len(t.pending)})
	return nil
}

func (t *viewSink) up() {
	d := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	at := uint32(len(t.refs))
	t.refs = append(append(t.refs, d.off, uint32(len(t.pending)-d.first)), t.pending[d.first:]...)
	t.pending = t.pending[:d.first]
	if len(t.open) == 0 {
		t.root = at
	} else {
		t.pending[d.first-1] = dirRef | at // what enter noted was the offset
	}
}

func (t *viewSink) file(name string, _ fs.FileMode, fp fpRef, size int64, chunks []chunkRef) error {
	if err := t.enter(name); err != nil {
		return err
	}
	if err := fp.validate(); err != nil {
		return fmt.Errorf("%s: %w", t.at(name), err)
	}
	var table []Chunk
	var whole hashing.Fingerprint
	if len(chunks) > 0 {
		// The hex forms of the file's fingerprint and its chunks' share
		// one buffer of their exact size.
		var hex strings.Builder
		hex.Grow(hexLen * (len(chunks) + 1))
		whole = fp.fingerprint(&hex)
		table = make([]Chunk, len(chunks))
		for i, c := range chunks {
			if err := c.fp.validate(); err != nil {
				return fmt.Errorf("%s chunk: %w", t.at(name), err)
			}
			table[i] = Chunk{Fingerprint: c.fp.fingerprint(&hex), Size: c.size}
		}
	}
	if err := checkSizes(size, table); err != nil {
		return fmt.Errorf("%s: %w", t.at(name), err)
	}
	if table != nil {
		if t.chunks == nil {
			t.chunks = make(map[hashing.Fingerprint][]Chunk)
		}
		t.chunks[whole] = table
	}
	return nil
}

func (t *viewSink) symlink(name string, _ fs.FileMode, _ string) error {
	return t.enter(name)
}
