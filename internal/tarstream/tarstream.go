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
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"strings"
	"sync"
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

// Buffer and codec pools. A gzip.Writer carries a multi-hundred-KB
// deflate state and a gzip.Reader a 32 KB window plus buffers;
// allocating them per object made every convert/push/fetch pay the
// setup cost again. The pools hand the same states back out, and
// because gzip framing at a fixed level is a pure function of the input
// byte stream, reuse cannot change output bytes.
var (
	gzWriterPool = sync.Pool{New: func() any {
		zw, err := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is always a valid level
		}
		return zw
	}}
	gzReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}
	bufPool      = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// getBuf returns a reset scratch buffer; callers must putBuf it after
// copying the bytes out.
func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// maxPooledBuf bounds the scratch buffers kept alive by the pool; an
// occasional giant archive should not pin its footprint forever.
const maxPooledBuf = 8 << 20

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

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
	if err := packInto(&buf, f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// packInto streams the tree's tar form into w.
func packInto(w io.Writer, f *vfs.FS) error {
	tw := tar.NewWriter(w)
	var p packer
	err := f.Walk(func(path string, n *vfs.Node) error {
		return p.writeEntry(tw, path, n)
	})
	if err != nil {
		return fmt.Errorf("tarstream: pack: %w", err)
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("tarstream: pack close: %w", err)
	}
	return nil
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

// PackGz serializes the tree as a gzip-compressed tar archive, the format
// Docker registries store layers in. The tar stream feeds the compressor
// directly — no intermediate uncompressed copy — and the output is
// byte-identical to Gzip(Pack(f)).
func PackGz(f *vfs.FS) ([]byte, error) {
	return deflate("packgz", func(zw *gzip.Writer) error { return packInto(zw, f) })
}

// Gzip compresses data with deterministic gzip framing.
func Gzip(data []byte) ([]byte, error) {
	return deflate("gzip", func(zw *gzip.Writer) error {
		_, err := zw.Write(data)
		return err
	})
}

// GzipFrom is Gzip of everything r holds, for content that is arriving
// rather than held: nothing the size of the content is allocated, only
// the stream. It also returns how many bytes r held. Each piece read
// is written to tee first — a digest of the content, typically, so that
// the content is judged in the pass that compresses it.
func GzipFrom(r io.Reader, tee io.Writer) (gz []byte, n int64, err error) {
	gz, err = deflate("gzip", func(zw *gzip.Writer) error {
		var err error
		n, err = Copy(io.MultiWriter(tee, zw), r)
		return err
	})
	return gz, n, err
}

// Copy is io.Copy through a pooled scratch: it allocates nothing. (A
// source that can write itself out — a bytes.Reader hands over its whole
// slice — is not copied through anything.)
func Copy(w io.Writer, r io.Reader) (int64, error) {
	scratch := copyPool.Get().(*[copyChunk]byte)
	defer copyPool.Put(scratch)
	return io.CopyBuffer(w, r, scratch[:])
}

// deflate runs write against a pooled compressor and returns the gzip
// stream it produced, in a buffer of its own exact size.
func deflate(op string, write func(zw *gzip.Writer) error) ([]byte, error) {
	buf := getBuf()
	defer putBuf(buf)
	zw := gzWriterPool.Get().(*gzip.Writer)
	defer gzWriterPool.Put(zw)
	zw.Reset(buf)
	if err := write(zw); err != nil {
		return nil, fmt.Errorf("tarstream: %s write: %w", op, err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("tarstream: %s close: %w", op, err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
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

// Gunzip decompresses gzip-framed data into one buffer sized from the
// ISIZE trailer (uncompressed length mod 2^32).
func Gunzip(data []byte) ([]byte, error) {
	size := int64(-1)
	if len(data) >= 8 {
		size = int64(binary.LittleEndian.Uint32(data[len(data)-4:]))
	}
	return GunzipFrom(bytes.NewReader(data), sized(SizeHint(size, int64(len(data)))))
}

// GunzipFrom decompresses the gzip stream r holds, to r's end, into a
// buffer of the capacity room gives it. r should be an io.ByteReader:
// the pooled gzip.Reader allocates a 4 KiB buffer of its own around any
// source that is not, and reads past the end of the stream through it.
func GunzipFrom(r io.Reader, room Room) ([]byte, error) {
	zr := gzReaderPool.Get().(*gzip.Reader)
	defer gzReaderPool.Put(zr)
	if err := zr.Reset(r); err != nil {
		return nil, fmt.Errorf("tarstream: gunzip: %w", err)
	}
	out, err := ReadAll(zr, room)
	if err != nil {
		return nil, fmt.Errorf("tarstream: gunzip read: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("tarstream: gunzip close: %w", err)
	}
	return out, nil
}

// GunzipTo inflates the gzip stream data into w and returns how many
// bytes that was, for a caller that wants the content's digest or length
// and not the content: nothing the size of the content is held. The
// stream is read to its end, so the CRC judges it as it does for Gunzip.
func GunzipTo(w io.Writer, data []byte) (int64, error) {
	zr := gzReaderPool.Get().(*gzip.Reader)
	defer gzReaderPool.Put(zr)
	if err := zr.Reset(bytes.NewReader(data)); err != nil {
		return 0, fmt.Errorf("tarstream: gunzip: %w", err)
	}
	n, err := Copy(w, zr)
	if err != nil {
		return n, fmt.Errorf("tarstream: gunzip read: %w", err)
	}
	if err := zr.Close(); err != nil {
		return n, fmt.Errorf("tarstream: gunzip close: %w", err)
	}
	return n, nil
}

// copyChunk is the size of the scratch Copy copies through. The
// scratch has a pool of its own: bufPool's buffers have grown to the size
// of whole archives, and borrowing one on every pull would keep it alive.
const copyChunk = 32 << 10

var copyPool = sync.Pool{New: func() any { return new([copyChunk]byte) }}

// GunzipRange returns the n bytes at offset off of the content of the
// gzip stream data, which is Gunzip(data)[off:off+n] without holding
// the content: it inflates and discards up to off, reads n bytes, then
// inflates and discards the rest. The tail is not needed for its bytes
// but for the trailer behind it — only at the end of the stream can the
// CRC say that what was read is what was stored, so a damaged object
// fails here exactly where it fails Gunzip. A range that does not fit
// the content is io.ErrUnexpectedEOF. The bytes are read into dst's
// memory when it has room for them, as append would.
func GunzipRange(dst, data []byte, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("tarstream: gunzip range [%d,+%d): negative", off, n)
	}
	zr := gzReaderPool.Get().(*gzip.Reader)
	defer gzReaderPool.Put(zr)
	if err := zr.Reset(bytes.NewReader(data)); err != nil {
		return nil, fmt.Errorf("tarstream: gunzip range: %w", err)
	}
	if _, err := io.CopyN(io.Discard, zr, off); err != nil {
		return nil, fmt.Errorf("tarstream: gunzip range skip: %w", noEOF(err))
	}
	// n is the caller's claim about the content: it gets memory only if
	// a stream this long could hold it.
	var out []byte
	if int64(cap(dst)) >= n {
		out = dst[:n]
	} else {
		out = make([]byte, SizeHint(n, int64(len(data))))
	}
	if int64(len(out)) != n {
		return nil, fmt.Errorf("tarstream: gunzip range: %d bytes from a %d-byte stream: %w", n, len(data), io.ErrUnexpectedEOF)
	}
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, fmt.Errorf("tarstream: gunzip range read: %w", noEOF(err))
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, fmt.Errorf("tarstream: gunzip range drain: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("tarstream: gunzip range close: %w", err)
	}
	return out, nil
}

// noEOF is err with a bare io.EOF, which here means the content ended
// inside the range, made the error it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Unpack parses a tar archive into a fresh tree. Whiteout entries are
// preserved literally (as empty regular files named ".wh.*"); use
// ApplyLayer to interpret them against a base tree.
func Unpack(data []byte) (*vfs.FS, error) {
	return unpackFrom(bytes.NewReader(data), len(data), ownCopy, 1)
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
// size, which Keep may return or hold as it is.
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
// file is nothing beside hashing it, one of a weights file is not.
const smallEntry = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new([smallEntry]byte) }}

// slot is one regular file between being read off the archive and
// being written to the tree, and the scratch it is read through.
type slot struct {
	scratch  *[smallEntry]byte // from scratchPool, once a small entry needs it
	p        string
	mode     fs.FileMode
	content  []byte // as read; then as Keep answered
	borrowed bool
	pending  bool          // handed to a worker, not yet written to the tree
	kept     chan struct{} // the worker's signal that content is Keep's answer
}

// unpacker builds the tree of one archive. Entries are written to the
// tree strictly in archive order. With one worker Keep is called as each
// file is read. With more, up to that many files are with Keep at once,
// each read through a scratch of its own: the slots are used round robin
// and a slot's file is written before the slot is used again, or before
// any entry that is not a regular file, so the order holds.
type unpacker struct {
	f    *vfs.FS
	made string // the directory the last entry was written into
	keep Keep
	ring []slot
	next int        // the slot the next regular file is read into
	jobs chan *slot // nil with one worker
	wg   sync.WaitGroup
}

// unpackFrom builds the tree of the archive r holds; bound is readEntry's.
func unpackFrom(r io.Reader, bound int, keep Keep, workers int) (*vfs.FS, error) {
	u := &unpacker{f: vfs.New(), made: "/", keep: keep, ring: make([]slot, max(workers, 1))}
	if workers > 1 {
		u.jobs = make(chan *slot)
		for i := range u.ring {
			u.ring[i].kept = make(chan struct{}, 1)
		}
		for w := 0; w < workers; w++ {
			u.wg.Add(1)
			go func() {
				defer u.wg.Done()
				for s := range u.jobs {
					s.content = u.keep(s.content, s.borrowed)
					s.kept <- struct{}{}
				}
			}()
		}
	}
	err := scanTar(r, func(p string, hdr *tar.Header, tr *tar.Reader) error {
		if hdr.Typeflag == tar.TypeReg {
			return u.regular(p, hdr, tr, bound)
		}
		if err := u.settle(); err != nil {
			return err
		}
		if err := u.mkParent(p); err != nil {
			return err
		}
		var err error
		if hdr.Typeflag == tar.TypeSymlink {
			err = u.f.Symlink(hdr.Linkname, p)
		} else if !u.f.Exists(p) {
			err = u.f.Mkdir(p, fs.FileMode(hdr.Mode).Perm())
		}
		if err != nil {
			return fmt.Errorf("tarstream: unpack %s: %w", p, err)
		}
		return nil
	})
	if err == nil {
		err = u.settle()
	}
	// No scratch goes back to the pool while a worker may still read it.
	if u.jobs != nil {
		close(u.jobs)
		u.wg.Wait()
	}
	for i := range u.ring {
		if u.ring[i].scratch != nil {
			scratchPool.Put(u.ring[i].scratch)
		}
	}
	if err != nil {
		return nil, err
	}
	return u.f, nil
}

// regular reads the regular-file entry tr stands at and passes it to
// Keep, here or on a worker.
func (u *unpacker) regular(p string, hdr *tar.Header, tr *tar.Reader, bound int) error {
	s := &u.ring[u.next]
	if err := u.write(s); err != nil {
		return err
	}
	s.p, s.mode = p, fs.FileMode(hdr.Mode).Perm()
	if s.borrowed = 0 <= hdr.Size && hdr.Size <= smallEntry; s.borrowed {
		if s.scratch == nil {
			s.scratch = scratchPool.Get().(*[smallEntry]byte)
		}
		s.content = s.scratch[:hdr.Size]
		// The tar reader ends an entry where its header says, so a full
		// read is the whole content.
		if _, err := io.ReadFull(tr, s.content); err != nil {
			return fmt.Errorf("tarstream: unpack %s: %w: %w", p, ErrCorrupt, err)
		}
	} else {
		var err error
		if s.content, err = readEntry(tr, hdr, p, bound); err != nil {
			return err
		}
	}
	s.pending = true
	if u.jobs == nil {
		s.content = u.keep(s.content, s.borrowed)
		return u.write(s)
	}
	u.jobs <- s
	u.next = (u.next + 1) % len(u.ring)
	return nil
}

// settle writes every file still pending to the tree, oldest first.
func (u *unpacker) settle() error {
	for i := range u.ring {
		if err := u.write(&u.ring[(u.next+i)%len(u.ring)]); err != nil {
			return err
		}
	}
	return nil
}

// write puts s's file, if it holds one, into the tree, waiting for the
// worker that has it.
func (u *unpacker) write(s *slot) error {
	if !s.pending {
		return nil
	}
	if u.jobs != nil {
		<-s.kept
	}
	s.pending = false
	if err := u.mkParent(s.p); err != nil {
		return err
	}
	if err := u.f.WriteFile(s.p, s.content, s.mode); err != nil {
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

// UnpackGz is Unpack over gzip-compressed data. The pooled gzip reader
// feeds the tar parser directly — the uncompressed archive is never
// materialized, so a layer unpack allocates its file contents and
// nothing else.
func UnpackGz(data []byte) (*vfs.FS, error) {
	return UnpackGzKeep(data, ownCopy, 1)
}

// UnpackGzKeep is UnpackGz with the tree's file contents chosen by keep,
// which up to workers goroutines call at once.
func UnpackGzKeep(data []byte, keep Keep, workers int) (f *vfs.FS, err error) {
	err = scanGz(data, func(r io.Reader, bound int) error {
		f, err = unpackFrom(r, bound, keep, workers)
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
// malformed entry anywhere, or a bad CRC, fails here as it fails UnpackGz.
func ReadFileGz(data []byte, name string) (string, error) {
	var content strings.Builder
	found := false
	err := scanGz(data, func(r io.Reader, bound int) error {
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
		return "", err
	}
	if !found {
		return "", fmt.Errorf("read %s: %w", name, vfs.ErrNotExist)
	}
	return content.String(), nil
}

// scanGz runs scan over the content of the gzip stream data, then reads
// the stream out and closes it, so that whatever scan did not consume is
// still inflated and the CRC still checked.
func scanGz(data []byte, scan func(r io.Reader, bound int) error) error {
	zr := gzReaderPool.Get().(*gzip.Reader)
	defer gzReaderPool.Put(zr)
	if err := zr.Reset(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("tarstream: unpackgz: %w", err)
	}
	// Deflate expands at most ~1032:1, so the compressed length bounds
	// any honest entry size the stream can carry.
	bound := len(data)*1032 + 64
	if bound < 0 { // overflow on absurd inputs: disable hinting
		bound = 0
	}
	if err := scan(zr, bound); err != nil {
		return err
	}
	// The tar parser stops at the end-of-archive trailer; drain the rest
	// of the member so Close verifies the gzip CRC exactly as the
	// materializing path did.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return fmt.Errorf("tarstream: unpackgz drain: %w: %w", ErrCorrupt, err)
	}
	if err := zr.Close(); err != nil {
		return fmt.Errorf("tarstream: unpackgz close: %w: %w", ErrCorrupt, err)
	}
	return nil
}

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

// ApplyLayer merges a layer diff (as produced by Unpack, with literal
// whiteout entries) into base, implementing Overlay2's union semantics:
// whiteouts delete lower entries, the opaque marker clears a directory,
// and every other entry replaces or adds to base.
//
// Opaque directories are cleared in a first pass — before any sibling
// entries are applied — because tar walk order is lexicographic and the
// ".wh..wh..opq" marker can otherwise sort after entries it must not
// erase (e.g. ".bashrc").
func ApplyLayer(base *vfs.FS, layer *vfs.FS) error {
	// Pass 1: opaque directory clears (literal markers or Opaque flags).
	err := layer.Walk(func(p string, n *vfs.Node) error {
		var dir string
		switch {
		case path.Base(p) == OpaqueMarker:
			dir = vfs.Clean(path.Dir(p))
		case n.Type() == vfs.TypeDir && n.Opaque:
			dir = p
		default:
			return nil
		}
		if err := base.RemoveAll(dir); err != nil {
			return err
		}
		return base.MkdirAll(dir, 0o755)
	})
	if err != nil {
		return fmt.Errorf("tarstream: apply layer opaque: %w", err)
	}

	// Pass 2: whiteouts, additions, and replacements.
	err = layer.Walk(func(p string, n *vfs.Node) error {
		i := strings.LastIndexByte(p, '/')
		dir, name := p[:max(i, 1)], p[i+1:]

		if name == OpaqueMarker {
			return nil // handled in pass 1
		}
		if hidden, ok := IsWhiteout(name); ok {
			target := path.Join(dir, hidden)
			return base.RemoveAll(target)
		}

		switch n.Type() {
		case vfs.TypeDir:
			if existing := base.Lookup(p); existing != nil && !existing.IsDir() {
				if err := base.Remove(p); err != nil {
					return err
				}
			}
			return base.MkdirAll(p, n.Mode())
		case vfs.TypeRegular:
			if existing := base.Lookup(p); existing != nil && existing.IsDir() {
				if err := base.RemoveAll(p); err != nil {
					return err
				}
			}
			return base.WriteFile(p, n.Content().Data(), n.Mode())
		case vfs.TypeSymlink:
			if existing := base.Lookup(p); existing != nil && existing.IsDir() {
				if err := base.RemoveAll(p); err != nil {
					return err
				}
			}
			return base.Symlink(n.Target(), p)
		default:
			return fmt.Errorf("%w: node type %v at %s", ErrCorrupt, n.Type(), p)
		}
	})
	if err != nil {
		return fmt.Errorf("tarstream: apply layer: %w", err)
	}
	return nil
}

// LayerStats summarizes a layer's visible payload: whiteout markers are
// counted separately from real entries.
type LayerStats struct {
	Entries   int   // real files/dirs/symlinks
	Whiteouts int   // deletion markers (including opaque)
	Bytes     int64 // regular-file payload bytes
}

// StatsOf inspects a layer tree.
func StatsOf(layer *vfs.FS) LayerStats {
	var s LayerStats
	_ = layer.Walk(func(p string, n *vfs.Node) error {
		name := path.Base(p)
		if _, ok := IsWhiteout(name); ok || name == OpaqueMarker {
			s.Whiteouts++
			return nil
		}
		s.Entries++
		if n.Type() == vfs.TypeRegular {
			s.Bytes += n.Size()
		}
		return nil
	})
	return s
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
		if err := layer.MkdirAll(path.Dir(p), 0o755); err != nil {
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
		// Skip children of already-whiteouted directories.
		parent := path.Dir(p)
		if parent != "/" && !next.Exists(parent) {
			return nil
		}
		if err := layer.MkdirAll(path.Dir(p), 0o755); err != nil {
			return err
		}
		// A replacement (e.g. file -> dir handled above) may already have
		// an entry; a pure deletion needs a whiteout.
		if n.Type() == vfs.TypeDir {
			// Directory replaced by file/symlink: the new entry already
			// overwrites it under ApplyLayer semantics; only emit a
			// whiteout when nothing replaces it.
			if layerHas(layer, p) {
				return nil
			}
		}
		if layerHas(layer, p) {
			return nil
		}
		return writeWhiteout(layer, p)
	})
	if err != nil {
		return nil, fmt.Errorf("tarstream: diff deletions: %w", err)
	}
	return layer, nil
}

func layerHas(layer *vfs.FS, p string) bool {
	return layer.Exists(p)
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
