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
var binaryMagic = []byte("GIX1")

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
	buf.Write(binaryMagic)
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
func DecodeBinary(data []byte) (*Index, error) {
	if !bytes.HasPrefix(data, binaryMagic) {
		return nil, fmt.Errorf("index: decode binary: bad magic: %w", ErrCorrupt)
	}
	d := &decoder{data: data, str: string(data), pos: len(binaryMagic)}
	cfgRaw, err := d.readBytes()
	if err != nil {
		return nil, fmt.Errorf("index: decode binary config: %w: %w", ErrCorrupt, err)
	}
	var cfg imagefmt.Config
	if err := json.Unmarshal(cfgRaw, &cfg); err != nil {
		return nil, fmt.Errorf("index: decode binary config: %w: %w", ErrCorrupt, err)
	}
	name, err := d.readString()
	if err != nil {
		return nil, fmt.Errorf("index: decode binary: %w: %w", ErrCorrupt, err)
	}
	tag, err := d.readString()
	if err != nil {
		return nil, fmt.Errorf("index: decode binary: %w: %w", ErrCorrupt, err)
	}
	root, err := d.readEntry(0)
	if err != nil {
		return nil, fmt.Errorf("index: decode binary tree: %w: %w", ErrCorrupt, err)
	}
	if d.left() != 0 {
		return nil, fmt.Errorf("index: decode binary: %d trailing bytes: %w", d.left(), ErrCorrupt)
	}
	ix := &Index{Name: name, Tag: tag, Config: cfg, Root: root}
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

// decoder reads the binary form from data at pos. str is the same bytes
// as a string, for the names and targets cut from it.
type decoder struct {
	data []byte
	str  string
	pos  int

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

func (d *decoder) left() int { return len(d.data) - d.pos }

// slab is how many items a refilled slab holds.
func (d *decoder) slab() int { return min(max(d.left()/slabEntryBytes, minSlab), maxSlab) }

func (d *decoder) newEntry() *Entry {
	if len(d.entries) == 0 {
		d.entries = make([]Entry, d.slab())
	}
	e := &d.entries[0]
	d.entries = d.entries[1:]
	return e
}

// children returns an empty child list with room for exactly n, which
// the caller has checked against the remaining input.
func (d *decoder) children(n int) []*Entry {
	if n > len(d.ptrs) {
		if n >= minSlab {
			return make([]*Entry, 0, n)
		}
		d.ptrs = make([]*Entry, d.slab())
	}
	out := d.ptrs[:0:n]
	d.ptrs = d.ptrs[n:]
	return out
}

func (d *decoder) readByte() (byte, error) {
	if d.left() == 0 {
		return 0, io.EOF
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) readUvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	switch {
	case n > 0:
		d.pos += n
		return v, nil
	case n < 0:
		return 0, errors.New("binary: varint overflows a 64-bit integer")
	case d.left() == 0:
		return 0, io.EOF
	default:
		return 0, io.ErrUnexpectedEOF
	}
}

// span consumes a length-prefixed run of bytes and returns where it is.
func (d *decoder) span() (lo, hi int, err error) {
	n, err := d.readUvarint()
	if err != nil {
		return 0, 0, err
	}
	if n > uint64(d.left()) {
		return 0, 0, fmt.Errorf("length %d exceeds input", n)
	}
	lo = d.pos
	d.pos += int(n)
	return lo, d.pos, nil
}

func (d *decoder) readBytes() ([]byte, error) {
	lo, hi, err := d.span()
	return d.data[lo:hi], err
}

func (d *decoder) readString() (string, error) {
	lo, hi, err := d.span()
	return d.str[lo:hi], err
}

func (d *decoder) readFingerprint() (hashing.Fingerprint, error) {
	tag, err := d.readByte()
	if err != nil {
		return "", err
	}
	switch tag {
	case 0:
		const rawLen, hexLen = 16, 32
		if d.left() < rawLen {
			if d.left() == 0 {
				return "", io.EOF
			}
			return "", io.ErrUnexpectedEOF
		}
		if d.hex.Cap()-d.hex.Len() < hexLen {
			// Strings handed out so far keep the old buffer alive.
			d.hex.Reset()
			d.hex.Grow(hexLen * d.slab())
		}
		var dst [hexLen]byte
		hex.Encode(dst[:], d.data[d.pos:d.pos+rawLen])
		d.pos += rawLen
		d.hex.Write(dst[:])
		arena := d.hex.String()
		return hashing.Fingerprint(arena[len(arena)-hexLen:]), nil
	case 1:
		s, err := d.readString()
		return hashing.Fingerprint(s), err
	default:
		return "", fmt.Errorf("fingerprint tag %d", tag)
	}
}

func (d *decoder) readEntry(depth int) (*Entry, error) {
	if depth > maxBinaryDepth {
		return nil, fmt.Errorf("tree deeper than %d", maxBinaryDepth)
	}
	name, err := d.readString()
	if err != nil {
		return nil, err
	}
	typ, err := d.readByte()
	if err != nil {
		return nil, err
	}
	mode, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	e := d.newEntry()
	*e = Entry{Name: name, Type: vfs.FileType(typ), Mode: fs.FileMode(mode)}
	switch e.Type {
	case vfs.TypeDir:
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(d.left()) {
			return nil, fmt.Errorf("child count %d exceeds input", n)
		}
		if n > 0 {
			// n is bounded by the remaining input, so the child list
			// cannot exceed the data we were handed.
			e.Children = d.children(int(n))
		}
		for i := uint64(0); i < n; i++ {
			c, err := d.readEntry(depth + 1)
			if err != nil {
				return nil, err
			}
			e.Children = append(e.Children, c)
		}
	case vfs.TypeRegular:
		if e.Fingerprint, err = d.readFingerprint(); err != nil {
			return nil, err
		}
		size, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		e.Size = int64(size)
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(d.left()) {
			return nil, fmt.Errorf("chunk count %d exceeds input", n)
		}
		if n > 0 {
			e.Chunks = make([]Chunk, 0, n)
		}
		for i := uint64(0); i < n; i++ {
			cfp, err := d.readFingerprint()
			if err != nil {
				return nil, err
			}
			csize, err := d.readUvarint()
			if err != nil {
				return nil, err
			}
			e.Chunks = append(e.Chunks, Chunk{Fingerprint: cfp, Size: int64(csize)})
		}
	case vfs.TypeSymlink:
		if e.Target, err = d.readString(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("entry type %d", typ)
	}
	return e, nil
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
