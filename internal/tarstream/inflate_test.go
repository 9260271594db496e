package tarstream

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/iotest"
)

// bitWriter writes deflate data by hand, for streams no encoder writes:
// a one-code distance tree, a code that does not add up, a match that
// reaches the whole window back.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// bits writes the n low bits of v, lowest first.
func (b *bitWriter) bits(v uint64, n uint) {
	b.acc |= v << b.n
	for b.n += n; b.n >= 8; b.n -= 8 {
		b.out = append(b.out, byte(b.acc))
		b.acc >>= 8
	}
}

// code writes an n-bit Huffman code, its highest bit first.
func (b *bitWriter) code(c uint64, n uint) { b.bits(uint64(bits.Reverse16(uint16(c))>>(16-n)), n) }

func (b *bitWriter) bytes() []byte {
	if b.n > 0 {
		b.bits(0, 8-b.n)
	}
	return b.out
}

func bit(final bool) uint64 {
	if final {
		return 1
	}
	return 0
}

// stored writes a stored block of data.
func (b *bitWriter) stored(final bool, data []byte) {
	b.bits(bit(final), 1)
	b.bits(0, 2)
	b.bytes()
	b.out = binary.LittleEndian.AppendUint16(b.out, uint16(len(data)))
	b.out = binary.LittleEndian.AppendUint16(b.out, ^uint16(len(data)))
	b.out = append(b.out, data...)
}

// fixed opens a block with the fixed codes; fixedSym writes a literal or
// length symbol in them, and a distance code is five plain bits.
func (b *bitWriter) fixed(final bool) {
	b.bits(bit(final), 1)
	b.bits(1, 2)
}

func (b *bitWriter) fixedSym(s int) {
	switch {
	case s < 144:
		b.code(uint64(0x30+s), 8)
	case s < 256:
		b.code(uint64(0x190+s-144), 9)
	case s < 280:
		b.code(uint64(s-256), 7)
	default:
		b.code(uint64(0xc0+s-280), 8)
	}
}

// dynamic opens a block with the codes of lit and dist lengths, written
// with a code-length code that gives lengths 0-15 four bits each, and
// returns the canonical codes of both.
func (b *bitWriter) dynamic(final bool, lit, dist []uint8) (litCodes, distCodes []uint64) {
	b.bits(bit(final), 1)
	b.bits(2, 2)
	b.bits(uint64(len(lit)-257), 5)
	b.bits(uint64(len(dist)-1), 5)
	b.bits(19-4, 4)
	for _, s := range codegenOrder {
		b.bits(uint64(4*bit(s < 16)), 3)
	}
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		b.code(uint64(l), 4)
	}
	return canonical(lit), canonical(dist)
}

// canonical is the code RFC 1951 §3.2.2 gives each length.
func canonical(lens []uint8) []uint64 {
	var count, next [16]uint64
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint64, len(lens))
	for s, l := range lens {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// deflateSeeds are the streams FuzzInflate starts from: every block
// type, a sync flush, the longest match at the longest distance, and the
// codes compress/flate takes or refuses at their edges.
func deflateSeeds(t testing.TB) map[string][]byte {
	seeds := make(map[string][]byte)
	text := bytes.Repeat([]byte("a dynamic block of text, text, text. "), 40)

	var b bitWriter
	b.stored(true, []byte("stored"))
	seeds["stored"] = b.bytes()

	b = bitWriter{}
	b.fixed(true)
	for _, c := range []byte("fixed") {
		b.fixedSym(int(c))
	}
	b.fixedSym(endBlockMarker)
	seeds["fixed"] = b.bytes()

	var w bytes.Buffer
	zw, _ := flate.NewWriter(&w, flate.BestCompression)
	_, _ = zw.Write(text)
	_ = zw.Flush() // the sync flush: an empty stored block
	_, _ = zw.Write(text[:100])
	_ = zw.Close()
	seeds["dynamic, sync flush"] = w.Bytes()

	// 32 KiB stored, then a match of 258 bytes 32 768 back.
	window := make([]byte, histSize)
	rand.New(rand.NewSource(1)).Read(window)
	b = bitWriter{}
	b.stored(false, window)
	b.fixed(true)
	b.fixedSym(285) // length 258
	b.code(29, 5)   // distance 24 577 + 8 191
	b.bits(8191, 13)
	b.fixedSym(endBlockMarker)
	seeds["distance 32768, length 258"] = b.bytes()

	// 'a', end of block and length 3 in lengths 1, 2, 2; one distance
	// code, of one bit: compress/flate takes the degenerate tree.
	lit := make([]uint8, 258)
	lit['a'], lit[endBlockMarker], lit[257] = 1, 2, 2
	b = bitWriter{}
	lc, dc := b.dynamic(true, lit, []uint8{1})
	b.code(lc['a'], 1)
	b.code(lc[257], 2) // length 3
	b.code(dc[0], 1)   // distance 1
	b.code(lc[endBlockMarker], 2)
	seeds["one-code distance tree"] = b.bytes()

	over := make([]uint8, 258)
	over['a'], over['b'], over[endBlockMarker] = 1, 1, 1
	b = bitWriter{}
	b.dynamic(true, over, []uint8{1})
	b.code(0, 1)
	seeds["over-subscribed code"] = b.bytes()

	incomplete := make([]uint8, 258)
	incomplete['a'], incomplete[endBlockMarker] = 1, 2
	b = bitWriter{}
	b.dynamic(true, incomplete, []uint8{1})
	b.code(0, 1)
	seeds["incomplete code"] = b.bytes()
	return seeds
}

// gzipSeeds are the streams FuzzGunzip starts from: concatenated
// members, each header flag, a bad CRC and a bad ISIZE, and the streams
// the repository writes — a layer and a segmented object.
func gzipSeeds(t testing.TB) map[string][]byte {
	seeds := make(map[string][]byte)
	member := func(h gzip.Header, content string) []byte {
		var w bytes.Buffer
		zw := gzip.NewWriter(&w)
		zw.Header = h
		_, _ = zw.Write([]byte(content))
		_ = zw.Close()
		return w.Bytes()
	}
	one := member(gzip.Header{}, "one member")
	seeds["two members"] = append(bytes.Clone(one), member(gzip.Header{}, "and another")...)
	seeds["FEXTRA"] = member(gzip.Header{Extra: []byte("extra field")}, "extra")
	seeds["FNAME"] = member(gzip.Header{Name: "name.txt"}, "named")
	seeds["FCOMMENT"] = member(gzip.Header{Comment: "a comment"}, "commented")

	text := bytes.Clone(one)
	text[3] |= 1 << 0
	seeds["FTEXT"] = text
	// FHCRC: the header's CRC-16 follows the fixed ten bytes.
	hcrc := append(bytes.Clone(one[:10]), 0, 0)
	hcrc[3] |= 1 << 1
	binary.LittleEndian.PutUint16(hcrc[10:], uint16(crc32.ChecksumIEEE(hcrc[:10])))
	seeds["FHCRC"] = append(hcrc, one[10:]...)

	badCRC := bytes.Clone(one)
	badCRC[len(badCRC)-8] ^= 1
	seeds["bad CRC"] = badCRC
	badSize := bytes.Clone(one)
	badSize[len(badSize)-4] ^= 1
	seeds["bad ISIZE"] = badSize

	seeds["layer"] = packGz(t, buildTree(t))
	seeds["segmented object"], _ = segmented(t, mixed(2, SegmentSize+5000))
	return seeds
}

// addSorted adds seeds to f's corpus in the order of their names.
func addSorted(f *testing.F, seeds map[string][]byte) {
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
}

// The ways a stream reaches the decoder: held in memory, held and read
// out through a window, and read from a reader a byte at a time, which
// makes the decoder stop and go on at every byte.
const (
	inMemory = iota
	throughWindow
	byteByByte
)

// inflateRaw inflates bare deflate data in one of those ways.
func inflateRaw(data []byte, way int) ([]byte, error) {
	switch way {
	case inMemory:
		z := getGunzipper(data, false)
		defer z.release()
		return z.readAll(nil)
	case throughWindow:
		z := openWindow(data, false)
		defer z.release()
		var out bytes.Buffer
		_, err := z.pass(&out, 0, 1<<40)
		if err == io.EOF {
			err = nil
		}
		return out.Bytes(), err
	}
	z := getReader(iotest.OneByteReader(bytes.NewReader(data)), false)
	defer z.release()
	return z.readAll(nil)
}

// FuzzInflate: over any bytes, the inflater — from memory, through a
// window, and a byte at a time — returns what compress/flate returns,
// and fails exactly when it fails.
func FuzzInflate(f *testing.F) {
	addSorted(f, deflateSeeds(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := io.ReadAll(flate.NewReader(bytes.NewReader(data)))
		for way := range byteByByte + 1 {
			got, err := inflateRaw(data, way)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("way %d: err = %v, compress/flate's = %v", way, err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("way %d: %d bytes, not compress/flate's %d", way, len(got), len(want))
			}
		}
	})
}

// FuzzGunzip: over any bytes, every reader of a gzip stream — Gunzip,
// GunzipFrom, GunzipInto, GunzipTo — returns what compress/gzip returns,
// and fails exactly when it fails.
func FuzzGunzip(f *testing.F) {
	z, err := Gzip([]byte("hello gzip"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(z)
	f.Add([]byte{0x1f, 0x8b})
	f.Add([]byte{})
	addSorted(f, gzipSeeds(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []byte
		zr, wantErr := gzip.NewReader(bytes.NewReader(data))
		if wantErr == nil {
			want, wantErr = io.ReadAll(zr)
		}
		check := func(name string, got []byte, err error) {
			t.Helper()
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: err = %v, compress/gzip's = %v", name, err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: %d bytes, not compress/gzip's %d", name, len(got), len(want))
			}
		}
		got, err := Gunzip(data)
		check("Gunzip", got, err)
		got, err = GunzipFrom(bytes.NewReader(data), nil)
		check("GunzipFrom", got, err)
		got, err = GunzipFrom(iotest.OneByteReader(bytes.NewReader(data)), nil)
		check("GunzipFrom, a byte at a time", got, err)
		var out bytes.Buffer
		_, err = GunzipTo(&out, data)
		check("GunzipTo", out.Bytes(), err)
		if wantErr == nil {
			into := make([]byte, len(want))
			check("GunzipInto", into, GunzipInto(into, iotest.HalfReader(bytes.NewReader(data))))
			if GunzipInto(make([]byte, len(want)+1), bytes.NewReader(data)) == nil {
				t.Fatal("GunzipInto: content a byte short of dst accepted")
			}
			if len(want) > 0 && GunzipInto(make([]byte, len(want)-1), bytes.NewReader(data)) == nil {
				t.Fatal("GunzipInto: content a byte over dst accepted")
			}
		}
	})
}

// A match reaches back across the window's moves: content that repeats
// a 32 KiB run of noise, whose matches are all the whole window back,
// streams out of GunzipTo and a one-segment range read as it went in.
// (compress/gzip writes it: BestSpeed's match skip outruns the noise.)
func TestWindowKeepsTheHistory(t *testing.T) {
	run := make([]byte, histSize)
	rand.New(rand.NewSource(3)).Read(run)
	content := bytes.Repeat(run, 12)
	content = append(content, run[:1000]...)
	var w bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&w, gzip.BestCompression)
	_, _ = zw.Write(content)
	_ = zw.Close()
	z := w.Bytes()
	if len(z) > 2*histSize {
		t.Fatalf("the stream is %d bytes: the repeats were not matched, the case proves nothing", len(z))
	}
	var out bytes.Buffer
	if n, err := GunzipTo(&out, z); err != nil || n != int64(len(content)) || !bytes.Equal(out.Bytes(), content) {
		t.Fatalf("GunzipTo: %d bytes, %v", n, err)
	}
	off := int64(len(content) - 5000)
	if got, err := GunzipRange(nil, z, nil, off, 4000); err != nil || !bytes.Equal(got, content[off:off+4000]) {
		t.Fatalf("GunzipRange past %d window moves: %v", len(content)/windowSize, err)
	}
}

// The seeds are what their names say: compress/flate takes the streams
// it should and refuses the codes that do not add up, and the inflater
// agrees on each.
func TestDeflateSeeds(t *testing.T) {
	refused := map[string]bool{"over-subscribed code": true, "incomplete code": true}
	for name, data := range deflateSeeds(t) {
		want, wantErr := io.ReadAll(flate.NewReader(bytes.NewReader(data)))
		if (wantErr != nil) != refused[name] {
			t.Errorf("%s: compress/flate: %v", name, wantErr)
		}
		got, err := inflateRaw(data, inMemory)
		if (err != nil) != refused[name] || !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, %v; compress/flate's %d bytes", name, len(got), err, len(want))
		}
	}
	for name, data := range gzipSeeds(t) {
		_, err := Gunzip(data)
		if bad := name == "bad CRC" || name == "bad ISIZE"; (err != nil) != bad {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// stalled is a reader that never returns anything, and never fails.
type stalled struct{}

func (stalled) Read([]byte) (int, error) { return 0, nil }

// A stream whose reader stops making progress is an error, not a hang.
func TestGunzipFromStalledReader(t *testing.T) {
	if _, err := GunzipFrom(stalled{}, nil); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("err = %v, want io.ErrNoProgress", err)
	}
}
