// Package tarstream serializes vfs trees to deterministic tar archives and
// back, including the Docker/OCI whiteout conventions that layered images
// use to express deletions. Docker stores every layer as a compressed
// tarball in the registry (§II-B of the Gear paper); this package is the
// wire format shared by the Docker-baseline registry, the Gear converter
// (which unpacks layers bottom-up), and the Gear index's single-layer
// image packaging.
package tarstream

import (
	"archive/tar"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gear-image/gear/internal/vfs"
)

// Whiteout naming follows the OCI image layer specification, which is what
// Overlay2-backed Docker layers use on the wire.
const (
	// WhiteoutPrefix marks a deletion of the suffixed name in lower layers.
	WhiteoutPrefix = ".wh."
	// OpaqueMarker inside a directory hides the directory's lower-layer
	// contents entirely.
	OpaqueMarker = ".wh..wh..opq"
)

// ErrCorrupt reports a malformed archive.
var ErrCorrupt = errors.New("corrupt tar stream")

// epoch is the fixed modification time stamped on all entries so that
// identical trees always produce byte-identical archives (and therefore
// identical layer digests, which layer-level dedup depends on).
var epoch = time.Unix(0, 0)

// maxPooledBuf bounds the scratch buffers kept alive by a pool; an
// occasional giant archive should not pin its footprint forever.
const maxPooledBuf = 8 << 20

// packedSizeHint estimates the tar size of a tree: one 512-byte header
// block per entry (two for opaque markers), content rounded up to block
// size, and the two-block end-of-archive trailer.
func packedSizeHint(f *vfs.FS) int {
	size := 1024
	_ = f.Walk(func(_ string, n *vfs.Node) error {
		size += 512
		if n.Type() == vfs.TypeRegular {
			size += (int(n.Size()) + 511) &^ 511
		}
		if n.Type() == vfs.TypeDir && n.Opaque {
			size += 512
		}
		return nil
	})
	return size
}

// Pack serializes the whole tree as an uncompressed tar archive in
// deterministic order.
func Pack(f *vfs.FS) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(packedSizeHint(f))
	tw := tar.NewWriter(&buf)
	var p packer
	err := f.Walk(func(path string, n *vfs.Node) error {
		return p.writeEntry(tw, path, n)
	})
	if err != nil {
		return nil, fmt.Errorf("tarstream: pack: %w", err)
	}
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("tarstream: pack close: %w", err)
	}
	return buf.Bytes(), nil
}

// packer reuses one header struct across entries; tar.Writer copies the
// fields on WriteHeader, so reuse is safe and saves an allocation per
// entry.
type packer struct {
	hdr tar.Header
}

func (pk *packer) writeEntry(tw *tar.Writer, p string, n *vfs.Node) error {
	name := strings.TrimPrefix(p, "/")
	pk.hdr = tar.Header{
		Name:    name,
		Mode:    int64(n.Mode().Perm()),
		ModTime: epoch,
	}
	switch n.Type() {
	case vfs.TypeDir:
		pk.hdr.Typeflag = tar.TypeDir
		pk.hdr.Name += "/"
		if err := tw.WriteHeader(&pk.hdr); err != nil {
			return err
		}
		if n.Opaque {
			pk.hdr = tar.Header{
				Name:     name + "/" + OpaqueMarker,
				Mode:     0,
				ModTime:  epoch,
				Typeflag: tar.TypeReg,
			}
			if err := tw.WriteHeader(&pk.hdr); err != nil {
				return err
			}
		}
		return nil
	case vfs.TypeSymlink:
		pk.hdr.Typeflag = tar.TypeSymlink
		pk.hdr.Linkname = n.Target()
		return tw.WriteHeader(&pk.hdr)
	case vfs.TypeRegular:
		pk.hdr.Typeflag = tar.TypeReg
		data := n.Content().Data()
		pk.hdr.Size = int64(len(data))
		if err := tw.WriteHeader(&pk.hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	default:
		return fmt.Errorf("%w: unsupported node type %v at %s", ErrCorrupt, n.Type(), p)
	}
}

// Gzip compresses data with deterministic gzip framing: one member of
// one segment, however long data is, which is byte for byte the stream
// gzip.Writer writes at BestSpeed — layer digests are taken of it, so it
// is written with compress/flate's own match skip.
func Gzip(data []byte) ([]byte, error) {
	gz, _, _, err := deflate(math.MaxInt, unboundedStep, func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		return int64(n), err
	})
	return gz, err
}

// GzipTee is Gzip, with the stream written to packed — a writer that
// cannot fail, such as a layer's Digest hash — on a goroutine of its own
// beside the compressor: in the parts its sink fills (maxPooledBuf each)
// as each fills, and the last part once the stream is done. So a big
// layer's stream is hashed while it is written, and a small one's, a
// single part, after. Nothing writes to packed when GzipTee returns.
func GzipTee(data []byte, packed io.Writer) ([]byte, error) {
	// A part holds at least maxPooledBuf less one write of the bit
	// writer (at most a stored block), so this many never wait.
	parts := make(chan []byte, len(data)/(maxPooledBuf-maxStoreBlockSize-5)+2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range parts {
			packed.Write(p)
		}
	}()
	teed, open := 0, true
	gz, _, _, err := deflateParts(math.MaxInt, unboundedStep, func(p []byte) {
		if open {
			parts <- p
			teed += len(p)
		}
	}, func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		// The first part lies in pooled scratch, which the stream is let
		// go of once copied out: the hashes are done with it before. A
		// part the stream's end fills is hashed below, from the copy.
		open = false
		close(parts)
		<-done
		return int64(n), err
	})
	if err != nil {
		return nil, err
	}
	packed.Write(gz[teed:])
	return gz, nil
}

// SegmentSize is how much content one segment of a segmented gzip
// stream holds: the unit a range read inflates and checks. It is a
// property of the format, not of any one corpus (DESIGN.md, "Streamed
// range reads", says why this size).
const SegmentSize = 64 << 10

// Segment is one row of a segmented gzip stream's table: the offset in
// the stream at which the segment's deflate data starts, and the CRC-32
// of the content it inflates to.
type Segment struct {
	Off int64
	CRC uint32
}

// GzipFrom compresses everything r holds as a segmented gzip stream, for
// content that is arriving rather than held: nothing the size of the
// content is allocated, only the stream. The stream is one plain gzip
// member, which any gzip reader inflates; inside it the deflate stream
// is sync-flushed every SegmentSize bytes of content and the compressor
// started afresh, so no back-reference crosses a segment and each can be
// inflated from where it starts (GunzipRange). Content of at most one
// segment has no table: segs is nil, and the stream is Gzip's, byte for
// byte, unless ~2 KiB or more of the content pass without a match. From
// there Gzip's matcher probes ever more sparsely, while this one
// (boundedStep) goes on probing every 64 bytes, so that compressible
// bytes behind an incompressible stretch are found. It also returns how
// many bytes r held. Each piece read is written to tee first — a digest
// of the content, typically, so that the content is judged in the pass
// that compresses it.
func GzipFrom(r io.Reader, tee io.Writer) (gz []byte, segs []Segment, n int64, err error) {
	return deflate(SegmentSize, boundedStep, func(w io.Writer) (int64, error) {
		return Copy(io.MultiWriter(tee, w), r)
	})
}

// deflate has write write content to a pooled gzipper whose segments
// hold width bytes of it, written with matches probed at most maxStep
// bytes apart, and returns the stream in a buffer of its own exact size,
// its table, and how much content write wrote. The stream is written
// into pooled scratch, which grows to at most maxPooledBuf, and past
// that into parts of its own, so that it is copied once, when it is
// done, however long it is.
func deflate(width int, maxStep int32, write func(w io.Writer) (int64, error)) (gz []byte, segs []Segment, n int64, err error) {
	return deflateParts(width, maxStep, nil, write)
}

// deflateParts is deflate, calling part, if it is not nil, with each
// part of the stream its sink fills, once it is full (see sink.full).
func deflateParts(width int, maxStep int32, part func([]byte), write func(w io.Writer) (int64, error)) (gz []byte, segs []Segment, n int64, err error) {
	scratch := streams.Get().(*[]byte)
	defer streams.Put(scratch)
	z := gzippers.Get().(*gzipper)
	defer z.release()
	z.start((*scratch)[:0], width, maxStep)
	z.out.spill, z.out.full = maxPooledBuf, part
	if n, err = write(z); err != nil {
		return nil, nil, n, fmt.Errorf("tarstream: gzip write: %w", err)
	}
	z.finish()
	gz = z.out.copyOut()
	if len(z.out.parts) == 0 && cap(z.out.b) <= maxPooledBuf {
		*scratch = z.out.b[:0]
	}
	if len(z.segs) > 0 {
		segs = append(append(make([]Segment, 0, len(z.segs)+1), z.segs...), z.open)
	}
	return gz, segs, n, nil
}

// gzipHeader opens every stream a gzipper writes: gzip.Writer's own
// header at BestSpeed, with no name, time or extra field, which is what
// keeps Gzip's stream byte for byte gzip.Writer's.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 255}

// gzipper writes one segmented gzip member into out. It is pooled whole,
// with the compressor that writes into out (~0.53 MB of state), so a
// stream costs only the memory it is written into; the encoder is a pure
// function of its input, so reuse cannot change a stream's bytes. Every
// compressed stream in the repository is written by one, and read by a
// gunzipper (inflate.go).
type gzipper struct {
	out   sink
	d     *compressor // writes into &out
	base  int         // where in out.b the stream starts
	width int         // content a segment holds
	left  int         // content the open segment has room for
	crc   uint32      // of the content of the closed segments, for the trailer
	size  uint32      // of all the content, mod 2^32, for the trailer
	open  Segment     // the segment being written
	segs  []Segment   // the segments before it, in scratch kept between streams
}

var gzippers = sync.Pool{New: func() any {
	z := new(gzipper)
	z.d = newCompressor(&z.out)
	return z
}}

// streams are what deflate writes a stream into before copying it out
// at its own size, and what AppendRange writes a range's stream into
// before it is judged. They are pooled apart from the gzippers, so that
// a compressor does not keep an upload's worth of memory alive.
var streams = sync.Pool{New: func() any { return new([]byte) }}

// sink is an io.Writer that appends to its slice. Given a spill size,
// once the slice would grow past it, it goes on in parts of its own,
// each kept in parts once it is full, so that a long stream is not
// copied each time it outgrows its memory.
type sink struct {
	b     []byte
	spill int      // 0: b grows as append grows it
	parts [][]byte // what filled b before, in order
	n     int      // bytes in parts
	// full, if not nil, is called with each part as it is kept, after
	// which nothing writes to it.
	full func([]byte)
}

func (s *sink) Write(p []byte) (int, error) {
	s.append(p)
	return len(p), nil
}

func (s *sink) append(p []byte) {
	if s.spill > 0 && len(s.b)+len(p) > max(cap(s.b), s.spill) {
		s.parts = append(s.parts, s.b)
		s.n += len(s.b)
		if s.full != nil {
			s.full(s.b)
		}
		s.b = make([]byte, 0, max(len(p), s.spill))
	}
	s.b = append(s.b, p...)
}

// len is how many bytes have been written: parts and b.
func (s *sink) len() int { return s.n + len(s.b) }

// copyOut returns a copy of everything written, of its own exact size.
// (Neither append nor bytes.Join clears the memory it copies into.)
func (s *sink) copyOut() []byte {
	if len(s.parts) == 0 {
		return append([]byte(nil), s.b...)[:len(s.b):len(s.b)]
	}
	return bytes.Join(append(s.parts, s.b), nil)
}

// start opens a stream at the end of dst whose segments hold width bytes
// of content, written with matches probed at most maxStep bytes apart.
func (z *gzipper) start(dst []byte, width int, maxStep int32) {
	z.out.b = append(dst, gzipHeader[:]...)
	z.out.parts, z.out.n = z.out.parts[:0], 0
	z.base = len(dst)
	z.d.fast.maxStep = maxStep
	z.d.reset()
	z.width, z.left, z.crc, z.size = width, width, 0, 0
	z.open, z.segs = Segment{Off: int64(len(gzipHeader))}, z.segs[:0]
}

// Write compresses content, closing a segment each time width bytes of
// it have been written and more arrive. It cannot fail, and it returns
// when the compressor holds nothing that refers to p.
func (z *gzipper) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if z.left == 0 {
			z.open.CRC = z.d.cut()
			z.crc = crc32Combine(z.crc, z.open.CRC, int64(z.width))
			z.segs = append(z.segs, z.open)
			z.open = Segment{Off: int64(z.out.len() - z.base)}
			z.left = z.width
		}
		k := min(len(p), z.left)
		z.left -= k
		// A full segment's last partial block is taken at once, from p
		// too, as the end of the segment would take it.
		z.d.write(p[:k], z.left == 0)
		z.size += uint32(k)
		p = p[k:]
	}
	z.d.settle()
	return n, nil
}

// finish ends the stream and returns what start was given with the
// stream appended, which is z.out's parts too if it spilled. The
// segments before the last are in z.segs.
func (z *gzipper) finish() []byte {
	z.d.close()
	z.open.CRC = z.d.crc
	crc := z.open.CRC
	if len(z.segs) > 0 {
		crc = crc32Combine(z.crc, crc, int64(z.width-z.left))
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	binary.LittleEndian.PutUint32(trailer[4:], z.size)
	z.out.append(trailer[:])
	return z.out.b
}

// crc32Combine is the CRC-32 of a's content followed by b's, given a's
// CRC, b's and b's length: zlib's crc32_combine. Multiplying by x^8 for
// each byte of b, modulo the polynomial, moves a's CRC past b's content,
// so a stream's trailer is made from its segments' CRCs without reading
// the content again.
func crc32Combine(a, b uint32, n int64) uint32 {
	return mulModP(xPow8n(n), a) ^ b
}

// mulModP multiplies a and b, polynomials over GF(2) in the reflected
// order of crc32.IEEE, modulo its polynomial.
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0 && a != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			a ^= m
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
	return p
}

// x2n[k] is x^(2^k) modulo the polynomial.
var x2n = func() (t [32]uint32) {
	t[0] = 1 << 30 // x
	for k := 1; k < len(t); k++ {
		t[k] = mulModP(t[k-1], t[k-1])
	}
	return t
}()

// xPow8n is x^(8n) modulo the polynomial: the operator that moves a CRC
// past n bytes.
func xPow8n(n int64) uint32 {
	p := uint32(1) << 31 // 1
	for k := 3; n != 0; k++ {
		if n&1 != 0 {
			p = mulModP(x2n[k%32], p)
		}
		n >>= 1
	}
	return p
}

// release hands z back to the pool holding nothing of the stream.
func (z *gzipper) release() {
	clear(z.out.parts[:cap(z.out.parts)])
	z.out.b, z.out.spill, z.out.full = nil, 0, nil
	gzippers.Put(z)
}

// Copy is io.Copy through a pooled scratch: it allocates nothing. (A
// source that can write itself out — a bytes.Reader hands over its whole
// slice — is not copied through anything.)
func Copy(w io.Writer, r io.Reader) (int64, error) {
	scratch := copyPool.Get().(*[copyChunk]byte)
	defer copyPool.Put(scratch)
	return io.CopyBuffer(w, r, scratch[:])
}

// SizeHint is the capacity worth giving, up front, to the content of a
// gzip stream of which held bytes are in hand and which is declared to
// inflate to size: the declared size, unless it is negative or more than
// deflate's maximum expansion (~1032:1) of the bytes held, in which case
// nothing — a corrupt trailer or a lying peer cannot force an absurd
// allocation. The declaration is only ever a hint: the reader grows
// past a short one, and the gzip CRC and ISIZE checks still judge what
// was read.
func SizeHint(size, held int64) int {
	if size < 0 || held < 0 || size > held*1032+64 || int64(int(size)) != size {
		return 0
	}
	return int(size)
}

// Room rules how much memory content gets while it is being read. It is
// asked each time the buffer is full, holding have bytes, for the
// capacity to go on with; an answer no larger than have leaves the
// growth to append.
type Room func(have int) int

// sized is the Room of content expected to come to hint bytes: when the
// hint is exact (the common case — it comes from the gzip ISIZE trailer
// or a tar header), the result is a single allocation with no growth
// copies. The one byte over is where the end of the content is read.
func sized(hint int) Room { return func(int) int { return hint + 1 } }

// ReadAll is io.ReadAll into a buffer of the capacity room gives it.
func ReadAll(r io.Reader, room Room) ([]byte, error) {
	var b []byte
	for {
		if len(b) == cap(b) {
			if c := room(len(b)); c > len(b) {
				b = append(make([]byte, 0, c), b...)
			} else {
				b = append(b, 0)[:len(b)]
			}
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// copyChunk is the size of the scratch Copy copies through. The
// scratch has a pool of its own: deflate's streams have grown to the size
// of whole archives, and borrowing one on every pull would keep it alive.
const copyChunk = 32 << 10

var copyPool = sync.Pool{New: func() any { return new([copyChunk]byte) }}

// GunzipRange returns the n bytes at offset off of the content of the
// segmented gzip stream data, whose table is segs, which is
// Gunzip(data)[off:off+n]. A stream GzipFrom left without a table, or
// any Gzip stream, is the one-entry case of the same walk: its one
// segment starts behind the header and its CRC is the trailer's.
//
// Only the segments the range overlaps are inflated, from where the
// first starts to where the last ends. Each is checked whole — the bytes
// before and after the range included — against its CRC, and the last
// must end exactly where the table says it does, so every byte returned
// lies in a segment whose CRC was checked. Damage anywhere else is not
// seen here but by Gunzip, which checks the trailer. A range that does
// not fit the content is io.ErrUnexpectedEOF. The bytes are read into
// dst's memory when it has room for them, as append would.
func GunzipRange(dst, data []byte, segs []Segment, off, n int64) ([]byte, error) {
	r, err := locate(data, segs, off, n)
	if err != nil {
		return nil, err
	}
	return r.appendRaw(dst[:0])
}

// AppendRange appends to dst what GunzipRange returns for the range, as
// it is best sent: as a gzip stream of it (a segmented one, as GzipFrom
// writes) when that is smaller, and raw otherwise. Deflating is only
// tried when the segments the range lies in were stored in fewer bytes
// than they hold, so that an incompressible range costs no deflate to
// find out. The range is inflated once, into dst's memory, and deflated
// from there, so a range that comes out no smaller is sent as it was
// inflated. gzipped says which form was appended.
func AppendRange(dst, data []byte, segs []Segment, off, n int64) (out []byte, gzipped bool, err error) {
	r, err := locate(data, segs, off, n)
	if err != nil {
		return nil, false, err
	}
	raw, err := r.appendRaw(dst)
	if err != nil || !r.packed() {
		return raw, false, err
	}
	// The stream is written into pooled scratch, and copied over the
	// range only if it is smaller.
	scratch := streams.Get().(*[]byte)
	defer streams.Put(scratch)
	z := gzippers.Get().(*gzipper)
	defer z.release()
	z.start((*scratch)[:0], SegmentSize, boundedStep)
	z.Write(raw[len(dst):])
	gz := z.finish()
	if cap(gz) <= maxPooledBuf {
		*scratch = gz[:0]
	}
	if len(gz) < int(n) {
		return append(raw[:len(dst)], gz...), true, nil
	}
	return raw, false, nil
}

// span is where a range lies in a segmented gzip stream: the segments it
// overlaps, first to last, each holding width bytes of content but the
// last of the stream, and the stretch [start, end) of the stream their
// deflate data takes.
type span struct {
	data        []byte
	segs        []Segment // nil for a stream without a table
	one         Segment   // the one segment of a stream without a table
	off, n      int64
	size, width int64
	first, last int64
	start, end  int64
}

// seg is row i of the stream's table.
func (r *span) seg(i int64) Segment {
	if r.segs == nil {
		return r.one
	}
	return r.segs[i]
}

// rows is how many rows the stream's table has.
func (r *span) rows() int64 { return max(int64(len(r.segs)), 1) }

// locate finds where [off, off+n) lies in data, checking it against what
// the stream's trailer says the content is.
func locate(data []byte, segs []Segment, off, n int64) (span, error) {
	if off < 0 || n < 0 {
		return span{}, fmt.Errorf("tarstream: gunzip range [%d,+%d): negative", off, n)
	}
	trailer := int64(len(data)) - 8
	if trailer < int64(len(gzipHeader)) || !bytes.Equal(data[:4], gzipHeader[:4]) {
		return span{}, fmt.Errorf("tarstream: gunzip range: %w", errHeader)
	}
	r := span{data: data, segs: segs, off: off, n: n, width: SegmentSize}
	r.size = int64(binary.LittleEndian.Uint32(data[trailer+4:]))
	if len(segs) <= 1 {
		r.one = Segment{Off: int64(len(gzipHeader)), CRC: binary.LittleEndian.Uint32(data[trailer:])}
		r.segs, r.width = nil, r.size
	} else if k := r.rows(); r.size <= (k-1)*r.width || r.size > k*r.width {
		return span{}, fmt.Errorf("tarstream: gunzip range: %d segments cannot hold %d bytes: %w", k, r.size, ErrCorrupt)
	}
	// n is the caller's claim about the content: it gets memory only if
	// a stream this long could hold it.
	if off > r.size || n > r.size-off || int64(SizeHint(n, int64(len(data)))) != n {
		return span{}, fmt.Errorf("tarstream: gunzip range [%d,+%d) of %d bytes in a %d-byte stream: %w", off, n, r.size, len(data), io.ErrUnexpectedEOF)
	}
	if n == 0 {
		return r, nil
	}
	r.first, r.last = off/r.width, (off+n-1)/r.width
	r.start, r.end = r.seg(r.first).Off, trailer
	if r.last+1 < r.rows() {
		r.end = r.seg(r.last + 1).Off
	}
	if r.start < int64(len(gzipHeader)) || r.start > r.end || r.end > trailer {
		return span{}, fmt.Errorf("tarstream: gunzip range: segment table does not fit a %d-byte stream: %w", len(data), ErrCorrupt)
	}
	return r, nil
}

// packed reports whether the segments the range overlaps were stored in
// fewer bytes than they hold.
func (r *span) packed() bool {
	return r.n > 0 && r.end-r.start < min((r.last+1)*r.width, r.size)-r.first*r.width
}

// appendRaw appends the range to dst, growing it at most once.
func (r *span) appendRaw(dst []byte) ([]byte, error) {
	if r.n == 0 {
		return dst, nil
	}
	z := openWindow(r.data[r.start:r.end], false)
	defer z.release()
	z.out.b = slices.Grow(dst, int(r.n))
	err := r.inflate(z, &z.out)
	out := z.out.b
	z.out.b = nil
	if err != nil {
		return nil, err
	}
	return out, nil
}

// segmentsInflated counts the segments span.inflate has inflated, for
// the tests that hold a range to its work budget.
var segmentsInflated atomic.Int64

// inflate walks the segments the (non-empty) range overlaps with z, a
// window on their deflate data, which is read as one stream, as it was
// written; it checks each segment and writes the range to w.
func (r *span) inflate(z *gunzipper, w io.Writer) error {
	for i := r.first; i <= r.last; i++ {
		segmentsInflated.Add(1)
		lo, hi := i*r.width, min((i+1)*r.width, r.size)
		from, to := max(lo, r.off), min(hi, r.off+r.n)
		crc, err := z.pass(io.Discard, 0, from-lo)
		if err == nil {
			if crc, err = z.pass(w, crc, to-from); err == nil {
				crc, err = z.pass(io.Discard, crc, hi-to)
			}
		}
		if err != nil {
			return fmt.Errorf("tarstream: gunzip range: segment %d: %w", i, noEOF(err))
		}
		if crc != r.seg(i).CRC {
			return fmt.Errorf("tarstream: gunzip range: segment %d: %w", i, errChecksum)
		}
	}
	// Behind the last segment's content its deflate data ends, on the
	// last byte given to the inflater: with the final block, or with the
	// sync flush before the next segment, after which the bytes run out.
	want := io.ErrUnexpectedEOF
	if r.last == r.rows()-1 {
		want = io.EOF
	}
	if b, err := z.next(1); len(b) != 0 || err != want || err == io.EOF && z.end() != len(z.in) {
		return fmt.Errorf("tarstream: gunzip range: segment %d does not end where its table says: %w", r.last, ErrCorrupt)
	}
	return nil
}

// noEOF is err with a bare io.EOF, which here means the content ended
// inside the range, made the error it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// scanTar is the streaming tar parse shared by every reader of an
// archive: it calls visit with the clean path and header of each entry
// of a type a tree can hold (the root itself is skipped), and visit reads
// the content of the ones it wants from tr. A malformed archive or an
// entry of any other type is ErrCorrupt, whoever is reading.
func scanTar(r io.Reader, visit func(p string, hdr *tar.Header, tr *tar.Reader) error) error {
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("tarstream: unpack: %w: %w", ErrCorrupt, err)
		}
		p := vfs.Clean(hdr.Name)
		if p == "/" {
			continue
		}
		switch hdr.Typeflag {
		case tar.TypeDir, tar.TypeReg, tar.TypeSymlink:
			if err := visit(p, hdr, tr); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unsupported tar entry type %q at %s",
				ErrCorrupt, hdr.Typeflag, p)
		}
	}
}

// readEntry reads the content of the regular-file entry tr stands at.
// bound caps the allocation hint taken from the header — a corrupt one
// claiming more than the stream can possibly hold must not drive the
// allocation; values <= 0 disable hinting entirely.
func readEntry(tr *tar.Reader, hdr *tar.Header, p string, bound int) ([]byte, error) {
	// hdr.Size is authoritative for a well-formed archive, so the
	// exact-size read avoids io.ReadAll's growth copies.
	hint := int(hdr.Size)
	if hint < 0 || hint > bound {
		hint = 0
	}
	content, err := ReadAll(tr, sized(hint))
	if err != nil {
		return nil, fmt.Errorf("tarstream: unpack %s: %w: %w", p, ErrCorrupt, err)
	}
	return content, nil
}

// Keep is asked, for every regular file of an archive being unpacked,
// what the tree should hold as its content, and answers with content or
// with equal bytes it holds already — which is how a caller that keeps
// contents of its own (the Gear converter's table of unique files) pays
// memory for new bytes only. Borrowed content lies in the unpacker's
// scratch and is only valid during the call: Keep copies what it wants
// to hold. Content that is not borrowed has a buffer of its own exact
// size, which Keep may return or hold as it is. Keep is called from at
// most two goroutines at once: the reader's, and one keeping a file over
// smallEntry beside it.
type Keep func(content []byte, borrowed bool) []byte

// ownCopy is the Keep of a plain unpack: every file gets its own bytes.
func ownCopy(content []byte, borrowed bool) []byte {
	if borrowed {
		return bytes.Clone(content)
	}
	return content
}

// smallEntry is the largest regular file, going by the size its header
// declares, that is read through the unpacker's scratch. A larger one is
// read into a buffer of its own and never copied: one memcpy of a small
// file is nothing beside hashing it, one of a weights file is not. As
// its buffer is its own, the reader need not wait for it to be kept: it
// is kept on a goroutine of its own while the reader reads on (see
// unpacker.entry).
const smallEntry = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new([smallEntry]byte) }}

// slot is one entry between being read off the archive and being
// written to the tree.
type slot struct {
	p       string
	typ     byte // tar.TypeReg, tar.TypeDir or tar.TypeSymlink
	mode    fs.FileMode
	link    string         // a symlink's target
	content []byte         // as read; then as Keep answered
	kept    sync.WaitGroup // done when the goroutine keeping a big file has put Keep's answer in content
}

// unpacker builds the tree of one archive, writing entries strictly in
// archive order. Each small file is read through a pooled scratch of
// smallEntry bytes and kept as it is read, and each entry is written at
// once, or after the bigger file being kept beside the reader, if there
// is one.
type unpacker struct {
	f       *vfs.FS
	made    string // the directory the last entry was written into
	keep    Keep
	scratch []byte // nil until a small file needs it
	cur     slot   // the entry being written at once
	// big is the file over smallEntry being kept on a goroutine of its
	// own until it is written, and behind holds the entries read since,
	// each kept already, to be written after it.
	big    *slot
	behind []slot
}

// unpackFrom builds the tree of the archive r holds; bound is readEntry's.
func unpackFrom(r io.Reader, bound int, keep Keep) (*vfs.FS, error) {
	u := &unpacker{f: vfs.New(), made: "/", keep: keep}
	err := scanTar(r, func(p string, hdr *tar.Header, tr *tar.Reader) error {
		return u.entry(p, hdr, tr, bound)
	})
	if err == nil {
		err = u.catchUp()
	}
	// No Keep is left running.
	if u.big != nil {
		u.big.kept.Wait()
	}
	if u.scratch != nil {
		scratchPool.Put((*[smallEntry]byte)(u.scratch))
	}
	if err != nil {
		return nil, err
	}
	return u.f, nil
}

// entry reads the entry tr stands at and writes it to the tree, or
// queues it behind the big file being kept. A file read into a buffer of
// its own goes to a goroutine of its own for Keep, one at a time, and
// the entries after it are read, kept, and queued behind it until it is
// written; any other entry is kept as it is read and written at once.
// So a big file's hashes run beside the inflater while nothing but the
// files' own bytes is held, and the tree is built in archive order.
func (u *unpacker) entry(p string, hdr *tar.Header, tr *tar.Reader, bound int) error {
	var content []byte
	borrowed := hdr.Typeflag == tar.TypeReg && 0 <= hdr.Size && hdr.Size <= smallEntry
	if borrowed {
		if u.scratch == nil {
			u.scratch = scratchPool.Get().(*[smallEntry]byte)[:]
		}
		content = u.scratch[:hdr.Size]
		// The tar reader ends an entry where its header says, so a full
		// read is the whole content.
		if _, err := io.ReadFull(tr, content); err != nil {
			return fmt.Errorf("tarstream: unpack %s: %w: %w", p, ErrCorrupt, err)
		}
	} else if hdr.Typeflag == tar.TypeReg {
		var err error
		if content, err = readEntry(tr, hdr, p, bound); err != nil {
			return err
		}
		if err := u.catchUp(); err != nil {
			return err
		}
		s := new(slot)
		s.fill(p, hdr, content)
		s.kept.Add(1)
		u.big = s
		go func() {
			defer s.kept.Done()
			s.content = u.keep(s.content, false)
		}()
		return nil
	}
	s := &u.cur
	if u.big != nil {
		u.behind = append(u.behind, slot{})
		s = &u.behind[len(u.behind)-1]
	}
	s.fill(p, hdr, content)
	if s.typ == tar.TypeReg {
		s.content = u.keep(s.content, borrowed)
	}
	if u.big != nil {
		return nil
	}
	return u.write(s)
}

// fill sets s to the entry at p: what its header says and its content
// as read.
func (s *slot) fill(p string, hdr *tar.Header, content []byte) {
	s.p, s.typ, s.mode, s.link, s.content = p, hdr.Typeflag, fs.FileMode(hdr.Mode).Perm(), hdr.Linkname, content
}

// catchUp writes the big file, once kept, and the entries behind it.
func (u *unpacker) catchUp() error {
	b := u.big
	if b == nil {
		return nil
	}
	u.big = nil
	err := u.write(b)
	for i := range u.behind {
		if err == nil {
			err = u.write(&u.behind[i])
		}
	}
	clear(u.behind)
	u.behind = u.behind[:0]
	return err
}

// write puts s's entry into the tree, waiting for the goroutine that
// keeps its file, if one does.
func (u *unpacker) write(s *slot) error {
	s.kept.Wait()
	if err := u.mkParent(s.p); err != nil {
		return err
	}
	var err error
	switch s.typ {
	case tar.TypeReg:
		err = u.f.WriteFile(s.p, s.content, s.mode)
	case tar.TypeSymlink:
		err = u.f.Symlink(s.link, s.p)
	default:
		if !u.f.Exists(s.p) {
			err = u.f.Mkdir(s.p, s.mode)
		}
	}
	if err != nil {
		return fmt.Errorf("tarstream: unpack %s: %w", s.p, err)
	}
	return nil
}

// mkParent makes the directory p is in. Entries of one directory arrive
// together, and a directory, once made, stays one (nothing here replaces
// a directory), so its chain is only made when the parent differs from
// the previous entry's.
func (u *unpacker) mkParent(p string) error {
	if dir := p[:max(strings.LastIndexByte(p, '/'), 1)]; dir != u.made {
		if err := u.f.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("tarstream: unpack %s: %w", p, err)
		}
		u.made = dir
	}
	return nil
}

// UnpackGz is Unpack over gzip-compressed data. The pooled decoder
// feeds the tar parser directly — the uncompressed archive is never
// materialized, so a layer unpack allocates its file contents and
// nothing else.
func UnpackGz(data []byte) (*vfs.FS, error) {
	return UnpackGzKeep(data, ownCopy)
}

// UnpackGzKeep is UnpackGz with the tree's file contents chosen by keep.
func UnpackGzKeep(data []byte, keep Keep) (f *vfs.FS, err error) {
	_, err = scanGz(data, func(r io.Reader, bound int) error {
		f, err = unpackFrom(r, bound, keep)
		return err
	})
	return f, err
}

// ReadFileGz returns the content of the regular file at the clean path
// name in the gzip-compressed tar archive data — what ReadFile(name) on
// the tree UnpackGz builds returns, without the tree: the one-file index
// layer of a Gear image is read this way on every deploy. The content
// comes back as a string because that is how its one reader keeps it (the
// index decoder cuts every name out of it), and a string built here is
// the only copy: a []byte would have to be copied again to become one.
// The whole archive is still parsed and the whole stream inflated, so a
// malformed entry anywhere, or a bad CRC, fails here as it fails UnpackGz,
// and the archive's length is returned too, for a caller that sizes the
// layer from the same inflate. The length is returned with any error
// after the stream was read to its end, ErrNotExist among them.
func ReadFileGz(data []byte, name string) (string, int64, error) {
	var content strings.Builder
	found := false
	n, err := scanGz(data, func(r io.Reader, bound int) error {
		return scanTar(r, func(p string, hdr *tar.Header, tr *tar.Reader) error {
			if p != name || (hdr.Typeflag == tar.TypeDir && found) {
				return nil
			}
			// As in a tree, a later entry replaces an earlier one.
			content.Reset()
			found = hdr.Typeflag == tar.TypeReg
			if !found {
				return nil
			}
			// The header's size is a hint held to readEntry's bound.
			if hint := int(hdr.Size); hint > 0 && hint <= bound {
				content.Grow(hint)
			}
			if _, err := Copy(&content, tr); err != nil {
				return fmt.Errorf("tarstream: unpack %s: %w: %w", p, ErrCorrupt, err)
			}
			return nil
		})
	})
	if err != nil {
		return "", n, err
	}
	if !found {
		return "", n, fmt.Errorf("read %s: %w", name, vfs.ErrNotExist)
	}
	return content.String(), n, nil
}

// scanGz runs scan over the content of the gzip stream data, then reads
// the stream out, so that whatever scan did not consume is still
// inflated and the CRC still checked, and returns the content's length.
// The content is inflated through a window, so memory for it stays the
// window's whatever the archive holds.
func scanGz(data []byte, scan func(r io.Reader, bound int) error) (int64, error) {
	z := openWindow(data, true)
	defer z.release()
	// Deflate expands at most ~1032:1, so the compressed length bounds
	// any honest entry size the stream can carry.
	bound := len(data)*1032 + 64
	if bound < 0 { // overflow on absurd inputs: disable hinting
		bound = 0
	}
	if err := scan(z, bound); err != nil {
		return z.total, err
	}
	// The tar parser stops at the end-of-archive trailer; drain the rest
	// of the stream so its CRC is checked.
	for {
		if _, err := z.next(windowSize); err == io.EOF {
			return z.total, nil
		} else if err != nil {
			return z.total, fmt.Errorf("tarstream: unpackgz drain: %w: %w", ErrCorrupt, err)
		}
	}
}

// ApplyLayer merges a layer diff (as produced by Unpack, with literal
// whiteout entries) into base. It is the repository's one changeset
// rule — pulling an image (the converter stacks its layers with it),
// committing a container (index.ApplyDiff) and the container's own view
// (package overlay, whose writable layer this applies over its lower)
// all answer as it does — and the rule is Overlay2's:
//
//   - a whiteout deletes the named entry of the layers below, and an
//     opaque directory (a ".wh..wh..opq" marker in it, or the Opaque
//     flag) hides everything they hold under it. Both speak of the
//     layers below only, so in each directory they are applied first,
//     before any entry of the layer itself: tar order is lexicographic,
//     and a marker or a whiteout can sort after entries it must not
//     erase (".bashrc");
//   - every other entry adds to base or replaces what base holds at its
//     path, and a directory entry sets its directory's mode, whether the
//     directory was there before or not. A cleared opaque directory is
//     made again by its own entry, with that entry's mode.
//
// A whiteout or an opaque marker that is a directory hides what it
// names, and what it holds is dropped.
//
// The layer is spent: its nodes move into base (vfs.FS.Graft), where
// each is what a node made afresh is, and the layer is left empty.
// Modes are set on base's nodes in place: base must be the caller's
// alone while ApplyLayer runs.
func ApplyLayer(base *vfs.FS, layer *vfs.FS) { base.Graft(layer, WhiteoutPrefix, OpaqueMarker) }
