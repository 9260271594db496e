package tarstream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/gzipfrom.golden from this checkout's encoder")

// GzipFrom's stream and table are pinned byte for byte: no standard
// library writer is an oracle for its capped match skip or for a stream
// of more than one segment, and the pool stores what it writes. Each row
// is the SHA-256 of the stream and of the table (Off, CRC little-endian
// per row) for content of the shape the read corpus has (runs) and of
// the shape with segments that differ (mixed), from empty to 4 MiB,
// segment and block edges included.
func TestGzipFromGolden(t *testing.T) {
	var got bytes.Buffer
	for _, shape := range []struct {
		name string
		make func(size int) []byte
	}{
		{"runs", func(size int) []byte { return runs(21, size, 1000) }},
		{"mixed", func(size int) []byte { return mixed(22, size) }},
	} {
		for _, size := range []int{0, 1, 65_535, 65_537, 300_017, 4 << 20} {
			z, segs := segmented(t, shape.make(size))
			var table []byte
			for _, s := range segs {
				table = binary.LittleEndian.AppendUint64(table, uint64(s.Off))
				table = binary.LittleEndian.AppendUint32(table, s.CRC)
			}
			zs, ts := sha256.Sum256(z), sha256.Sum256(table)
			fmt.Fprintf(&got, "%s %d %d %s %s\n", shape.name, size, len(z), hex.EncodeToString(zs[:]), hex.EncodeToString(ts[:]))
		}
	}
	path := filepath.Join("testdata", "gzipfrom.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("GzipFrom wrote other streams (shape, size, stream bytes, stream and table SHA-256):\ngot:\n%swant:\n%s", got.Bytes(), want)
	}
}

// writePieces writes content in pieces of at most piece bytes, through
// one buffer that is overwritten as soon as each write returns, as
// io.Copy's is: a compressor that kept a reference to a piece would
// compress other bytes.
func writePieces(content []byte, piece int) func(w io.Writer) (int64, error) {
	return func(w io.Writer) (int64, error) {
		buf := make([]byte, min(piece, len(content)))
		for rest := content; len(rest) > 0; {
			k := copy(buf, rest)
			if _, err := w.Write(buf[:k]); err != nil {
				return 0, err
			}
			for i := range buf {
				buf[i] = ^buf[i]
			}
			rest = rest[k:]
		}
		return int64(len(content)), nil
	}
}

// A 16 KiB range inflates the one segment it lies in, or the two it
// straddles, and no more: at the first, a middle and the last segment,
// read raw (GunzipRange) and sent compressed (AppendRange). Counting
// allocates nothing: a range read into room it fits in allocates
// nothing at all.
func TestRangeInflatesOnlyItsSegments(t *testing.T) {
	const n = 16 << 10
	content := bytes.Repeat([]byte("a range inflates the segments it overlaps; "), 6*SegmentSize/40)
	z, segs := segmented(t, content)
	for _, c := range []struct {
		off  int64
		segs int64
	}{
		{0, 1},
		{SegmentSize - n, 1},
		{SegmentSize - n + 1, 2},
		{3*SegmentSize + 100, 1},
		{3*SegmentSize - n/2, 2},
		{int64(len(content)) - n, 1},
		{int64(len(content)/SegmentSize)*SegmentSize - 10, 2},
	} {
		want := content[c.off : c.off+n]
		before := segmentsInflated.Load()
		got, err := GunzipRange(nil, z, segs, c.off, n)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("[%d,+%d): GunzipRange: %v", c.off, n, err)
		}
		if d := segmentsInflated.Load() - before; d != c.segs {
			t.Errorf("[%d,+%d): GunzipRange inflated %d segments, want %d", c.off, n, d, c.segs)
		}
		before = segmentsInflated.Load()
		sent, gzipped, err := AppendRange(nil, z, segs, c.off, n)
		if err == nil && gzipped {
			sent, err = Gunzip(sent)
		}
		if err != nil || !gzipped || !bytes.Equal(sent, want) {
			t.Fatalf("[%d,+%d): AppendRange (gzipped %v): %v", c.off, n, gzipped, err)
		}
		if d := segmentsInflated.Load() - before; d != c.segs {
			t.Errorf("[%d,+%d): AppendRange inflated %d segments, want %d", c.off, n, d, c.segs)
		}
	}

	// A range tried compressed and sent raw, no smaller, is sent from
	// the bytes inflated for the compressor: its segments are inflated
	// once. (TestAppendRangeSendsWhatCompresses's noise/text edge.)
	noise := make([]byte, 3*SegmentSize)
	rand.New(rand.NewSource(16)).Read(noise)
	text := mixed(17, 3*SegmentSize)[SegmentSize : 2*SegmentSize]
	edge := append(append(noise[:0:0], noise...), bytes.Repeat(text, 3)...)
	ez, esegs := segmented(t, edge)
	before := segmentsInflated.Load()
	sent, gzipped, err := AppendRange(nil, ez, esegs, 3*SegmentSize-100, 200)
	if err != nil || gzipped || !bytes.Equal(sent, edge[3*SegmentSize-100:3*SegmentSize+100]) {
		t.Fatalf("noise/text edge: AppendRange (gzipped %v): %v", gzipped, err)
	}
	if d := segmentsInflated.Load() - before; d != 2 {
		t.Errorf("noise/text edge: AppendRange inflated %d segments, want 2", d)
	}

	dst := make([]byte, 0, n)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := GunzipRange(dst, z, segs, 3*SegmentSize-n/2, n); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a range read into room for it allocates %.1f times", allocs)
	}
}

// A stream that outgrows its sink's spill size goes on in parts, and is
// copied out as the one stream it is, its segment table too: Gzip's and
// GzipFrom's, with parts as small as a write of the bit writer.
func TestSpilledStreamIsOneStream(t *testing.T) {
	content := mixed(24, 300_017)
	plain, err := Gzip(content)
	if err != nil {
		t.Fatal(err)
	}
	stored, storedSegs := segmented(t, content)
	for _, spill := range []int{1, 240, 4096, 40_000} {
		for _, c := range []struct {
			width    int
			maxStep  int32
			want     []byte
			wantSegs []Segment
		}{
			{math.MaxInt, unboundedStep, plain, nil},
			{SegmentSize, boundedStep, stored, storedSegs},
		} {
			z := gzippers.Get().(*gzipper)
			z.start(nil, c.width, c.maxStep)
			z.out.spill = spill
			_, _ = z.Write(content)
			z.finish()
			got := z.out.copyOut()
			var segs []Segment
			if len(z.segs) > 0 {
				segs = append(z.segs, z.open)
			}
			if len(z.out.parts) == 0 || !bytes.Equal(got, c.want) || !slices.Equal(segs, c.wantSegs) {
				t.Errorf("segments of %d bytes, spilling every %d bytes, in %d parts: another stream or table", c.width, spill, len(z.out.parts))
			}
			z.release()
		}
	}
}

// crc32Combine is the CRC of the joined contents, at every split of
// contents of lengths around the segment size, empty halves included.
func TestCRC32Combine(t *testing.T) {
	content := mixed(5, 2*SegmentSize+3)
	want := crc32.ChecksumIEEE(content)
	for _, at := range []int{0, 1, 17, SegmentSize - 1, SegmentSize, SegmentSize + 1, len(content) - 1, len(content)} {
		a, b := content[:at], content[at:]
		if got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b))); got != want {
			t.Errorf("split at %d: %08x, want %08x", at, got, want)
		}
	}
}

// GzipTee writes Gzip's stream, and hands the hash what Gzip wrote: for
// a stream of one part and for one of several.
func TestGzipTeeHashesWhatGzipWrites(t *testing.T) {
	big := make([]byte, 2*maxPooledBuf+12345) // incompressible: a stream of three parts
	rand.New(rand.NewSource(3)).Read(big)
	for _, content := range [][]byte{nil, mixed(4, 300_017), big} {
		want, err := Gzip(content)
		if err != nil {
			t.Fatal(err)
		}
		packed := sha256.New()
		got, err := GzipTee(content, packed)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: GzipTee wrote another stream: %v", len(content), err)
		}
		if p := sha256.Sum256(want); !bytes.Equal(packed.Sum(nil), p[:]) {
			t.Errorf("%d bytes: packed hash is not the stream's", len(content))
		}
	}
}
