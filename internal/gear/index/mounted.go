package index

import (
	"errors"
	"fmt"
	"io/fs"
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

	// blob is the validated binary index the tree was decoded from, which
	// the tree's names and targets alias.
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
// index. blob is retained: the tree's names alias it, and Index decodes
// it. Like DecodeBinary, it trusts no count read from the input for more
// memory than the input could back.
func DecodeMounted(blob string) (*Mounted, error) {
	d := decoder{str: blob}
	m := &Mounted{blob: blob}
	var err error
	if m.Name, m.Tag, m.Config, err = d.header(); err != nil {
		return nil, err
	}
	into := treeSink{d: &d, fs: vfs.New(), hints: len(blob) / minEntryBytes}
	if err := d.tree(&into); err != nil {
		return nil, err
	}
	m.Tree, m.Chunks = into.fs, into.chunks
	return m, nil
}

// treeSink builds the placeholder tree and the chunk tables, and holds
// each entry, as it arrives, to what Validate requires of it — so that a
// node is only ever added to a directory under a name Validate would let
// through, which is what vfs.Node.AddDir and its kin ask of their caller.
type treeSink struct {
	d      *decoder
	fs     *vfs.FS
	chunks map[hashing.Fingerprint][]Chunk
	// open are the directories being filled, innermost last.
	open []openDir
	// records is the arena the placeholder records are cut from: the free
	// capacity behind its length is where the next one goes.
	records []byte
	// hints is how many more entries directory maps may be sized for ahead
	// of their arrival (see dir).
	hints int
}

type openDir struct {
	node *vfs.Node
	// last is the name of the entry added last, "" before the first.
	last string
}

const (
	// minEntryBytes is the least input an entry with a name takes: the
	// name and its length, a type, a mode, and a count or a length.
	minEntryBytes = 5
	// maxRecordSlab bounds one refill of the record arena, and so what
	// an arena sized for files that turn out not to follow can waste.
	maxRecordSlab = 32 << 10
)

// at spells the path of the entry name in the directory being filled, for
// an error message.
func (t *treeSink) at(name string) string {
	var b strings.Builder
	for _, o := range t.open {
		b.WriteString(o.node.Name())
		b.WriteByte('/')
	}
	return b.String() + name
}

// enter checks name against the directory being filled, which it returns.
func (t *treeSink) enter(name string) (*vfs.Node, error) {
	if len(t.open) == 0 {
		return nil, errors.New("root is not a directory")
	}
	in := &t.open[len(t.open)-1]
	if badName(name) {
		return nil, fmt.Errorf("bad name %q in %s", name, t.at(""))
	}
	if name <= in.last { // no name is "": the first passes
		return nil, fmt.Errorf("unsorted children in %s", t.at(""))
	}
	in.last = name
	return in.node, nil
}

func (t *treeSink) dir(name string, mode fs.FileMode, n int) error {
	if len(t.open) == 0 {
		if name != "" {
			return fmt.Errorf("root is named %q", name)
		}
		t.open = append(t.open, openDir{node: t.fs.Root()})
		return nil
	}
	in, err := t.enter(name)
	if err != nil {
		return err
	}
	// The map is sized for the n children announced, out of a budget of
	// one per minEntryBytes of blob: an honest index, whose counts add up
	// to its entries, never exhausts it, and a blob of nested directories
	// each claiming the rest of the input gets no more out of it.
	hint := min(n, t.hints)
	t.hints -= hint
	t.open = append(t.open, openDir{node: in.AddDir(name, mode, hint)})
	return nil
}

func (t *treeSink) up() { t.open = t.open[:len(t.open)-1] }

func (t *treeSink) file(name string, mode fs.FileMode, fp fpRef, size int64, chunks []chunkRef) error {
	in, err := t.enter(name)
	if err != nil {
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
	in.AddFile(name, t.record(fp, size), mode)
	return nil
}

func (t *treeSink) symlink(name string, _ fs.FileMode, target string) error {
	in, err := t.enter(name)
	if err != nil {
		return err
	}
	in.AddSymlink(name, target)
	return nil
}

// record renders the placeholder record of a file into the arena. A full
// arena is replaced by one sized for the input that is left — a file's
// entry and its record are about the same length — so an index's records
// lie in one buffer and a short second, and an arena is never more than
// maxRecordSlab larger than the records cut from it.
func (t *treeSink) record(fp fpRef, size int64) []byte {
	const sizeDigits = 20 // an int64 at its longest
	most := len(PlaceholderPrefix) + fp.textLen() + 1 + sizeDigits + 1
	if cap(t.records)-len(t.records) < most {
		t.records = make([]byte, 0, most+min(t.d.left(), maxRecordSlab))
	}
	start := len(t.records)
	t.records = appendPlaceholder(t.records, fp, size)
	return t.records[start:len(t.records):len(t.records)]
}
