package tarstream

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/gear-image/gear/internal/vfs"
)

// FuzzUnpack: arbitrary bytes must never panic the unpacker, and any
// archive it accepts must re-pack deterministically.
func FuzzUnpack(f *testing.F) {
	tree := vfs.New()
	_ = tree.MkdirAll("/d", 0o755)
	_ = tree.WriteFile("/d/f", []byte("content"), 0o644)
	_ = tree.Symlink("f", "/d/l")
	_ = tree.WriteFile("/d/.wh.gone", nil, 0)
	seed, err := Pack(tree)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("not a tar archive at all, definitely"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs1, err := Unpack(data)
		if err != nil {
			return
		}
		a, err := Pack(fs1)
		if err != nil {
			t.Fatalf("accepted tree fails to pack: %v", err)
		}
		fs2, err := Unpack(a)
		if err != nil {
			t.Fatalf("our own archive fails to unpack: %v", err)
		}
		b, err := Pack(fs2)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatal("pack/unpack not a fixed point")
		}
	})
}

// FuzzGunzipRange: over any object and any range, GunzipRange is the
// slice of Gunzip or an error, never a panic and never other bytes; and
// a range that fits a sound object always succeeds. Plain mode reads a
// Gzip stream, which has one segment and no table; segmented mode puts
// the content behind two segments of fixed bytes and reads GzipFrom's
// stream of the whole through its table, so ranges land on, inside and
// across segment edges.
func FuzzGunzipRange(f *testing.F) {
	f.Add([]byte("hello gzip range"), int64(0), int64(5), false)
	f.Add([]byte("hello gzip range"), int64(6), int64(10), false)
	f.Add([]byte("hello gzip range"), int64(16), int64(1), false) // past the end
	f.Add([]byte("hello gzip range"), int64(-1), int64(4), false)
	f.Add([]byte{}, int64(0), int64(0), false)
	f.Add([]byte("hello gzip range"), int64(SegmentSize-3), int64(6), true)   // across an edge
	f.Add([]byte("hello gzip range"), int64(2*SegmentSize), int64(16), true)  // the content
	f.Add([]byte("hello gzip range"), int64(100), int64(2*SegmentSize), true) // three segments
	f.Add([]byte{}, int64(2*SegmentSize), int64(1), true)                     // past the end
	f.Fuzz(func(t *testing.T, content []byte, off, n int64, seg bool) {
		var z []byte
		var segs []Segment
		if seg {
			content = append(mixed(3, 2*SegmentSize), content...)
			z, segs = segmented(t, content)
		} else {
			var err error
			if z, err = Gzip(content); err != nil {
				t.Fatal(err)
			}
		}
		whole, err := Gunzip(z)
		if err != nil || !bytes.Equal(whole, content) {
			t.Fatalf("the stream does not inflate to its content: %v", err)
		}
		got, err := GunzipRange(nil, z, segs, off, n)
		fits := off >= 0 && n >= 0 && off <= int64(len(whole)) && n <= int64(len(whole))-off
		if !fits {
			if err == nil {
				t.Fatalf("range [%d,+%d) of %d bytes accepted", off, n, len(whole))
			}
			return
		}
		if err != nil {
			t.Fatalf("range [%d,+%d) of %d bytes: %v", off, n, len(whole), err)
		}
		if !bytes.Equal(got, whole[off:off+n]) {
			t.Fatalf("range [%d,+%d) returned other bytes", off, n)
		}
	})
}

// FuzzDeflate: over any content — data behind up to five segments of
// noise (an even noise) or of mixed noise, text and zeros (an odd one),
// so that the data may follow an incompressible stretch, a block that is
// all noise included, cross segment edges, and come after several
// blocks — Gzip's stream is byte for byte what gzip.Writer writes at
// BestSpeed, and so is the stream of the same content written a piece
// at a time; GzipFrom's inflates through compress/gzip to the content,
// carries a table that fits it, and is the same written a piece at a
// time.
func FuzzDeflate(f *testing.F) {
	f.Add([]byte("hello deflate"), uint32(0))
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 40), uint32(5000))         // text behind noise
	f.Add(bytes.Repeat([]byte("segment edge "), 40), uint32(SegmentSize-200)) // across an edge
	f.Add([]byte{}, uint32(SegmentSize+1))
	f.Add(bytes.Repeat([]byte("many blocks "), 40), uint32(4*SegmentSize+3000))
	f.Add(bytes.Repeat([]byte("many mixed blocks "), 40), uint32(4*SegmentSize+3001))
	f.Add([]byte("pieces of a block and a half"), uint32(300_001))
	f.Fuzz(func(t *testing.T, data []byte, noise uint32) {
		size := int(noise % (5 * SegmentSize))
		var content []byte
		if noise%2 == 0 {
			content = make([]byte, size)
			rand.New(rand.NewSource(int64(noise))).Read(content)
		} else {
			content = mixed(int64(noise), size)
		}
		content = append(content, data...)

		var want bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&want, gzip.BestSpeed)
		_, _ = zw.Write(content)
		_ = zw.Close()
		if plain, err := Gzip(content); err != nil || !bytes.Equal(plain, want.Bytes()) {
			t.Fatalf("%d bytes: Gzip is not gzip.Writer's stream: %v", len(content), err)
		}
		piece := 1 + int(noise%100_003)
		if plain, _, _, err := deflate(math.MaxInt, unboundedStep, writePieces(content, piece)); err != nil || !bytes.Equal(plain, want.Bytes()) {
			t.Fatalf("%d bytes in pieces of %d: not gzip.Writer's stream: %v", len(content), piece, err)
		}

		z, segs := segmented(t, content)
		if inPieces, piecesSegs, _, err := deflate(SegmentSize, boundedStep, writePieces(content, piece)); err != nil || !bytes.Equal(inPieces, z) || !slices.Equal(piecesSegs, segs) {
			t.Fatalf("%d bytes in pieces of %d: another segmented stream: %v", len(content), piece, err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(z))
		if err != nil {
			t.Fatalf("%d bytes: gzip.NewReader: %v", len(content), err)
		}
		if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("%d bytes: compress/gzip reads other content: %v", len(content), err)
		}
		checkTable(t, content, z, segs)
	})
}
