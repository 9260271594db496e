package index

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// Binary index codec. JSON spends ~50 bytes per entry mostly on hex
// fingerprints and field names; the binary form stores fingerprints as
// raw 16-byte MD5 values and structure as varints, roughly halving the
// index image — which matters because index bytes are pure overhead on
// top of the paper's storage-saving numbers (Fig 7).
//
// Layout:
//
//	magic "GIX1"
//	uvarint len + JSON(config)   — config stays JSON: tiny and schema-free
//	string name, string tag
//	entry tree, pre-order:
//	  string name, byte type, uvarint mode
//	  dir:     uvarint nchildren, children...
//	  regular: fingerprint, uvarint size, uvarint nchunks,
//	           nchunks x (fingerprint, uvarint size)
//	  symlink: string target
//	fingerprint: byte tag 0 + 16 raw bytes (plain MD5), or
//	             byte tag 1 + string     (collision-fallback IDs)
//	string: uvarint len + bytes
const binaryMagic = "GIX1"

// EncodeBinary renders the index in the compact binary form.
func EncodeBinary(ix *Index) ([]byte, error) {
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	cfg, err := json.Marshal(ix.Config)
	if err != nil {
		return nil, fmt.Errorf("index: encode binary config: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(binaryMagic) + len(cfg) + len(ix.Name) + len(ix.Tag) + 16 + entrySizeHint(ix.Root))
	buf.WriteString(binaryMagic)
	writeBytes(&buf, cfg)
	writeString(&buf, ix.Name)
	writeString(&buf, ix.Tag)
	if err := writeEntry(&buf, ix.Root); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBinary parses and validates a binary index.
//
// The decoded index aliases one copy of its input: data is converted to a
// string once, and every entry name and symlink target is a substring of
// that copy, so the copy lives as long as any name does (data itself is
// not retained and may be reused). Entries, child lists and the hex form
// of raw fingerprints are carved from slabs sized by the input that is
// left, so an index costs a handful of allocations, not several per
// entry, and no count read from the input is trusted for more memory than
// the input could back.
func DecodeBinary(data []byte) (*Index, error) { return decodeIndex(string(data)) }

// decodeIndex is DecodeBinary of a blob that is a string already, which
// the decoded index aliases.
func decodeIndex(blob string) (*Index, error) {
	d := decoder{str: blob}
	ix := new(Index)
	var err error
	if ix.Name, ix.Tag, ix.Config, err = d.header(); err != nil {
		return nil, err
	}
	into := &entrySink{d: &d}
	into.open = into.openBuf[:0]
	if err := d.tree(into); err != nil {
		return nil, err
	}
	ix.Root = into.root
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

// maxBinaryDepth bounds tree recursion against adversarial input.
const maxBinaryDepth = 256

// entrySizeHint upper-bounds an entry's encoded size so EncodeBinary can
// allocate its buffer once: name + type byte + up-to-5-byte varints, a
// 17-byte raw fingerprint (fallback IDs may run longer, costing at most
// one buffer growth), and 22 bytes per chunk.
func entrySizeHint(e *Entry) int {
	n := len(e.Name) + 1 + 1 + 5
	switch {
	case len(e.Children) > 0:
		n += 5
		for _, c := range e.Children {
			n += entrySizeHint(c)
		}
	case len(e.Chunks) > 0:
		n += 17 + 10 + 5 + 22*len(e.Chunks)
	default:
		n += 17 + 10 + 5 + len(e.Target)
	}
	return n
}

func writeEntry(buf *bytes.Buffer, e *Entry) error {
	writeString(buf, e.Name)
	buf.WriteByte(byte(e.Type))
	writeUvarint(buf, uint64(e.Mode))
	switch e.Type {
	case vfs.TypeDir:
		writeUvarint(buf, uint64(len(e.Children)))
		for _, c := range e.Children {
			if err := writeEntry(buf, c); err != nil {
				return err
			}
		}
	case vfs.TypeRegular:
		if err := writeFingerprint(buf, e.Fingerprint); err != nil {
			return err
		}
		writeUvarint(buf, uint64(e.Size))
		writeUvarint(buf, uint64(len(e.Chunks)))
		for _, ch := range e.Chunks {
			if err := writeFingerprint(buf, ch.Fingerprint); err != nil {
				return err
			}
			writeUvarint(buf, uint64(ch.Size))
		}
	case vfs.TypeSymlink:
		writeString(buf, e.Target)
	default:
		return fmt.Errorf("index: encode binary: type %v: %w", e.Type, ErrCorrupt)
	}
	return nil
}

// decoder reads the binary form from the string str at pos. Everything it
// hands out — names, targets, fingerprints — is a substring of str.
//
// The format is walked once, by tree, whatever is being built from it:
// the walk reads the entries in their pre-order and hands each to a sink.
// There are two. entrySink builds the typed Entry tree (DecodeBinary: the
// converter, the tools, whoever wants to look at an index), which is
// validated afterwards; viewSink builds the table a mounted tree fills
// itself in by (DecodeMounted: the deploy path), validating each entry as
// it arrives.
type decoder struct {
	str string
	pos int
	// start is where the entry being handed to the sink begins: a sink
	// is told of a directory before the walk reads on into it.
	start int

	// chunks is the walk's scratch for the chunk list of the file it is
	// reading; a sink copies what it keeps.
	chunks []chunkRef
}

// sink is what the walk builds into. The walk vouches for the framing
// only — every count and length is backed by input — and the sink for
// whatever else it requires of an entry.
type sink interface {
	// dir opens a directory that announces n children: the entries up to
	// the matching up are inside it.
	dir(name string, mode fs.FileMode, n int) error
	up()
	file(name string, mode fs.FileMode, fp fpRef, size int64, chunks []chunkRef) error
	symlink(name string, mode fs.FileMode, target string) error
}

// fpRef is a fingerprint as the blob spells it: the 16 raw bytes of a
// plain MD5, or a collision-fallback ID written out.
type fpRef struct {
	s   string
	raw bool
}

type chunkRef struct {
	fp   fpRef
	size int64
}

const rawLen, hexLen = 16, 32

// validate is Fingerprint.Validate without the Fingerprint: the hex form
// of raw bytes is well formed whatever the bytes.
func (r fpRef) validate() error {
	if r.raw {
		return nil
	}
	return hashing.Fingerprint(r.s).Validate()
}

// textLen is the length of the fingerprint written out.
func (r fpRef) textLen() int {
	if r.raw {
		return hexLen
	}
	return len(r.s)
}

// appendText appends the fingerprint written out.
func (r fpRef) appendText(dst []byte) []byte {
	if !r.raw {
		return append(dst, r.s...)
	}
	return hex.AppendEncode(dst, []byte(r.s))
}

// fingerprint returns the fingerprint written out: the ID itself, or the
// hex form of the raw bytes appended to arena, which has room for it.
func (r fpRef) fingerprint(arena *strings.Builder) hashing.Fingerprint {
	if !r.raw {
		return hashing.Fingerprint(r.s)
	}
	var dst [hexLen]byte
	arena.Write(r.appendText(dst[:0]))
	s := arena.String()
	return hashing.Fingerprint(s[len(s)-hexLen:])
}

// header reads what precedes the entry tree.
func (d *decoder) header() (name, tag string, cfg imagefmt.Config, err error) {
	if !strings.HasPrefix(d.str, binaryMagic) {
		return "", "", cfg, fmt.Errorf("index: decode binary: bad magic: %w", ErrCorrupt)
	}
	d.pos = len(binaryMagic)
	cfgRaw, err := d.readString()
	if err == nil {
		err = json.Unmarshal([]byte(cfgRaw), &cfg)
	}
	if err != nil {
		return "", "", cfg, fmt.Errorf("index: decode binary config: %w: %w", ErrCorrupt, err)
	}
	if name, err = d.readString(); err == nil {
		tag, err = d.readString()
	}
	if err != nil {
		return "", "", cfg, fmt.Errorf("index: decode binary: %w: %w", ErrCorrupt, err)
	}
	return name, tag, cfg, nil
}

// tree walks the entry tree, which is the rest of the input, into s.
func (d *decoder) tree(s sink) error {
	if err := d.entry(s, 0); err != nil {
		return fmt.Errorf("index: decode binary tree: %w: %w", ErrCorrupt, err)
	}
	if d.left() != 0 {
		return fmt.Errorf("index: decode binary: %d trailing bytes: %w", d.left(), ErrCorrupt)
	}
	return nil
}

func (d *decoder) left() int { return len(d.str) - d.pos }

func (d *decoder) readByte() (byte, error) {
	if d.left() == 0 {
		return 0, io.EOF
	}
	b := d.str[d.pos]
	d.pos++
	return b, nil
}

// readUvarint is binary.Uvarint over the string.
func (d *decoder) readUvarint() (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; d.pos+i < len(d.str); i++ {
		b := d.str[d.pos+i]
		if i == binary.MaxVarintLen64 || i == binary.MaxVarintLen64-1 && b > 1 && b < 0x80 {
			return 0, errors.New("binary: varint overflows a 64-bit integer")
		}
		if b < 0x80 {
			d.pos += i + 1
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	if d.left() == 0 {
		return 0, io.EOF
	}
	return 0, io.ErrUnexpectedEOF
}

// count reads how many of something follow, none of which can take less
// than a byte: a count the remaining input cannot back is refused before
// anything is sized by it.
func (d *decoder) count(what string) (int, error) {
	n, err := d.readUvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.left()) {
		return 0, fmt.Errorf("%s count %d exceeds input", what, n)
	}
	return int(n), nil
}

// readString consumes a length-prefixed run of bytes.
func (d *decoder) readString() (string, error) {
	n, err := d.readUvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.left()) {
		return "", fmt.Errorf("length %d exceeds input", n)
	}
	lo := d.pos
	d.pos += int(n)
	return d.str[lo:d.pos], nil
}

func (d *decoder) readFingerprint() (fpRef, error) {
	tag, err := d.readByte()
	if err != nil {
		return fpRef{}, err
	}
	switch tag {
	case 0:
		if d.left() < rawLen {
			if d.left() == 0 {
				return fpRef{}, io.EOF
			}
			return fpRef{}, io.ErrUnexpectedEOF
		}
		d.pos += rawLen
		return fpRef{s: d.str[d.pos-rawLen : d.pos], raw: true}, nil
	case 1:
		s, err := d.readString()
		return fpRef{s: s}, err
	default:
		return fpRef{}, fmt.Errorf("fingerprint tag %d", tag)
	}
}

// entry reads one entry, and everything below it, into s.
func (d *decoder) entry(s sink, depth int) error {
	if depth > maxBinaryDepth {
		return fmt.Errorf("tree deeper than %d", maxBinaryDepth)
	}
	d.start = d.pos
	name, err := d.readString()
	if err != nil {
		return err
	}
	typ, err := d.readByte()
	if err != nil {
		return err
	}
	rawMode, err := d.readUvarint()
	if err != nil {
		return err
	}
	mode := fs.FileMode(rawMode)
	switch vfs.FileType(typ) {
	case vfs.TypeDir:
		n, err := d.count("child")
		if err != nil {
			return err
		}
		if err := s.dir(name, mode, n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := d.entry(s, depth+1); err != nil {
				return err
			}
		}
		s.up()
		return nil
	case vfs.TypeRegular:
		fp, err := d.readFingerprint()
		if err != nil {
			return err
		}
		size, err := d.readUvarint()
		if err != nil {
			return err
		}
		n, err := d.count("chunk")
		if err != nil {
			return err
		}
		// A chunk is a fingerprint of two bytes or more and a size.
		const minChunkBytes = 3
		if cap(d.chunks) < n {
			d.chunks = make([]chunkRef, 0, min(n, d.left()/minChunkBytes))
		}
		chunks := d.chunks[:0]
		for i := 0; i < n; i++ {
			cfp, err := d.readFingerprint()
			if err != nil {
				return err
			}
			csize, err := d.readUvarint()
			if err != nil {
				return err
			}
			chunks = append(chunks, chunkRef{fp: cfp, size: int64(csize)})
		}
		return s.file(name, mode, fp, int64(size), chunks)
	case vfs.TypeSymlink:
		target, err := d.readString()
		if err != nil {
			return err
		}
		return s.symlink(name, mode, target)
	default:
		return fmt.Errorf("entry type %d", typ)
	}
}

// entrySink builds the Entry tree. It checks nothing: the index it makes
// is validated whole.
type entrySink struct {
	d    *decoder
	root *Entry
	// open are the directories being filled, innermost last; openBuf is
	// room for them in all but the deepest trees.
	open    []*Entry
	openBuf [16]*Entry

	// Slabs the tree is carved from; each is refilled, when it runs out,
	// for as many items as the remaining input is likely to hold.
	entries []Entry
	ptrs    []*Entry
	hex     strings.Builder
}

// Slab sizing. A refilled slab holds left()/slabEntryBytes items: an entry
// is at least 4 bytes of input, so no slab outgrows the input behind it
// by more than a constant factor, and slabEntryBytes is chosen above what
// a typical entry takes (a file with a short name and a raw fingerprint
// is a little under 40), so that a slab is rather refilled — each time
// for the smaller remainder — than left half empty.
const (
	slabEntryBytes = 48
	minSlab        = 8
	maxSlab        = 1024
)

// slab is how many items a refilled slab holds.
func (s *entrySink) slab() int { return min(max(s.d.left()/slabEntryBytes, minSlab), maxSlab) }

// add puts e into the directory being filled (or at the root) and returns
// where it now lives.
func (s *entrySink) add(e Entry) *Entry {
	if len(s.entries) == 0 {
		s.entries = make([]Entry, s.slab())
	}
	p := &s.entries[0]
	s.entries = s.entries[1:]
	*p = e
	if len(s.open) == 0 {
		s.root = p
	} else {
		in := s.open[len(s.open)-1]
		in.Children = append(in.Children, p)
	}
	return p
}

// children returns an empty child list with room for exactly n, which
// the walk has checked against the remaining input.
func (s *entrySink) children(n int) []*Entry {
	if n == 0 {
		return nil
	}
	if n > len(s.ptrs) {
		if n >= minSlab {
			return make([]*Entry, 0, n)
		}
		s.ptrs = make([]*Entry, s.slab())
	}
	out := s.ptrs[:0:n]
	s.ptrs = s.ptrs[n:]
	return out
}

func (s *entrySink) fingerprint(r fpRef) hashing.Fingerprint {
	if r.raw && s.hex.Cap()-s.hex.Len() < hexLen {
		// Strings handed out so far keep the old buffer alive.
		s.hex.Reset()
		s.hex.Grow(hexLen * s.slab())
	}
	return r.fingerprint(&s.hex)
}

func (s *entrySink) dir(name string, mode fs.FileMode, n int) error {
	e := s.add(Entry{Name: name, Type: vfs.TypeDir, Mode: mode, Children: s.children(n)})
	s.open = append(s.open, e)
	return nil
}

func (s *entrySink) up() { s.open = s.open[:len(s.open)-1] }

func (s *entrySink) file(name string, mode fs.FileMode, fp fpRef, size int64, chunks []chunkRef) error {
	e := s.add(Entry{Name: name, Type: vfs.TypeRegular, Mode: mode, Fingerprint: s.fingerprint(fp), Size: size})
	if len(chunks) > 0 {
		e.Chunks = make([]Chunk, len(chunks))
		for i, c := range chunks {
			e.Chunks[i] = Chunk{Fingerprint: s.fingerprint(c.fp), Size: c.size}
		}
	}
	return nil
}

func (s *entrySink) symlink(name string, mode fs.FileMode, target string) error {
	s.add(Entry{Name: name, Type: vfs.TypeSymlink, Mode: mode, Target: target})
	return nil
}

func writeFingerprint(buf *bytes.Buffer, fp hashing.Fingerprint) error {
	if len(fp) == 32 {
		var raw [16]byte
		if _, err := hex.Decode(raw[:], []byte(fp)); err == nil {
			buf.WriteByte(0)
			buf.Write(raw[:])
			return nil
		}
	}
	if err := fp.Validate(); err != nil {
		return err
	}
	buf.WriteByte(1)
	writeString(buf, string(fp))
	return nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func writeBytes(buf *bytes.Buffer, b []byte) {
	writeUvarint(buf, uint64(len(b)))
	buf.Write(b)
}
