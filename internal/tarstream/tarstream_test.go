package tarstream

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"path"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"github.com/gear-image/gear/internal/vfs"
)

// buildTree constructs a small fixture tree.
func buildTree(t testing.TB) *vfs.FS {
	t.Helper()
	f := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.MkdirAll("/etc/app", 0o755))
	must(f.MkdirAll("/usr/bin", 0o755))
	must(f.WriteFile("/etc/app/conf", []byte("key=value\n"), 0o644))
	must(f.WriteFile("/usr/bin/app", bytes.Repeat([]byte{0x7f}, 1024), 0o755))
	must(f.Symlink("app", "/usr/bin/app-latest"))
	return f
}

func treeEqual(a, b *vfs.FS) (string, bool) {
	snap := func(f *vfs.FS) string {
		var sb strings.Builder
		_ = f.Walk(func(p string, n *vfs.Node) error {
			var body string
			if n.Type() == vfs.TypeRegular {
				body = string(n.Content().Data())
			}
			fmt.Fprintf(&sb, "%s %v %o %q %q\n", p, n.Type(), n.Mode(), n.Target(), body)
			return nil
		})
		return sb.String()
	}
	sa, sb := snap(a), snap(b)
	if sa == sb {
		return "", true
	}
	return fmt.Sprintf("--- a\n%s--- b\n%s", sa, sb), false
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := buildTree(t)
	data, err := Pack(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if diff, ok := treeEqual(f, g); !ok {
		t.Errorf("round trip mismatch:\n%s", diff)
	}
}

func TestPackDeterministic(t *testing.T) {
	f := buildTree(t)
	a, err := Pack(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pack(f.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("identical trees produced different archives")
	}
	if !bytes.Equal(packGz(t, f), packGz(t, f)) {
		t.Error("identical trees produced different gzip archives")
	}
}

func TestGzipRoundTrip(t *testing.T) {
	in := bytes.Repeat([]byte("compressible "), 100)
	z, err := Gzip(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) >= len(in) {
		t.Errorf("gzip did not compress: %d >= %d", len(z), len(in))
	}
	out, err := Gunzip(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("gzip round trip mismatch")
	}
}

func TestGunzipCorrupt(t *testing.T) {
	if _, err := Gunzip([]byte("not gzip")); err == nil {
		t.Error("Gunzip accepted garbage")
	}
}

// segmented is GzipFrom of content, which must not fail.
func segmented(t testing.TB, content []byte) ([]byte, []Segment) {
	t.Helper()
	z, segs, n, err := GzipFrom(bytes.NewReader(content), io.Discard)
	if err != nil || n != int64(len(content)) {
		t.Fatalf("GzipFrom of %d bytes: n=%d, %v", len(content), n, err)
	}
	return z, segs
}

// mixed is content whose segments differ: noise, zeros and repeated text
// in runs that do not line up with SegmentSize, so segments compress to
// different lengths and some are stored.
func mixed(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	content := make([]byte, size)
	text := []byte("a segmented gzip stream is one plain member; ")
	for at := 0; at < size; at += 40_000 {
		run := content[at:min(at+40_000, size)]
		switch (at / 40_000) % 3 {
		case 0:
			rng.Read(run)
		case 1:
			for i := range run {
				run[i] = text[i%len(text)]
			}
		}
	}
	return content
}

// checkTable checks the table GzipFrom returned with z, its stream of
// content: none for content of at most one segment, and otherwise one
// row per SegmentSize bytes, the first behind the header, each starting
// after the one before inside the stream and carrying its content's CRC.
func checkTable(t testing.TB, content, z []byte, segs []Segment) {
	t.Helper()
	size := len(content)
	if size <= SegmentSize {
		if segs != nil {
			t.Errorf("%d bytes: one segment has %d rows", size, len(segs))
		}
		return
	}
	if rows := (size + SegmentSize - 1) / SegmentSize; len(segs) != rows || segs[0].Off != 10 {
		t.Fatalf("%d bytes: %d rows, want %d starting behind the header", size, len(segs), rows)
	}
	for i, s := range segs {
		part := content[i*SegmentSize : min((i+1)*SegmentSize, size)]
		if s.CRC != crc32.ChecksumIEEE(part) {
			t.Errorf("%d bytes: segment %d has another CRC than its content", size, i)
		}
		if i > 0 && (s.Off <= segs[i-1].Off || s.Off > int64(len(z))-8) {
			t.Errorf("%d bytes: segment %d starts at %d", size, i, s.Off)
		}
	}
}

// runs is content in the shape of the benchmark's read corpus: 64 KiB
// runs of noise alternating with 64 KiB runs in which each 4 KiB block
// repeats a 64-byte pattern of its own, the whole cut skew bytes in, so
// that no run lines up with a segment.
func runs(seed int64, size, skew int) []byte {
	rng := rand.New(rand.NewSource(seed))
	content := make([]byte, size+skew)
	for at := 0; at < len(content); at += 4096 {
		blk := content[at:min(at+4096, len(content))]
		if at/(64<<10)%2 == 0 {
			rng.Read(blk)
			continue
		}
		var pattern [64]byte
		rng.Read(pattern[:])
		for i := range blk {
			blk[i] = pattern[i%64]
		}
	}
	return content[skew:]
}

// Content whose compressible runs follow incompressible ones — the
// benchmark's read corpus, cut into pieces at arbitrary offsets as
// content-defined chunking cuts a file — is stored in at most 0.53 of its
// size. (compress/flate's BestSpeed, whose match skip outruns the
// patterns behind the noise, stores these pieces in 0.636.) The patterns
// alone deflate to next to nothing, so the bound is the noise and a few
// percent.
func TestMixedContentCompresses(t *testing.T) {
	content := runs(5, 4<<20, 0)
	rng := rand.New(rand.NewSource(1))
	stored := 0
	for rest := content; len(rest) > 0; {
		piece := rest[:min(len(rest), 64<<10+rng.Intn(384<<10))]
		z, _ := segmented(t, piece)
		stored += len(z)
		rest = rest[len(piece):]
	}
	if ratio := float64(stored) / float64(len(content)); ratio > 0.53 {
		t.Errorf("%d bytes stored in %d: ratio %.4f, want at most 0.53", len(content), stored, ratio)
	}
}

// A compressor, the state every pooled gzipper carries and every
// compressed reply borrows, holds at most 600 KB: BestSpeed's table, two
// windows and a block's tokens (compress/flate's Writer allocates 1.17 MB
// at BestSpeed, 640 KB of it hash chains BestSpeed never touches). It is
// measured after it has written a stream, so what it allocates on first
// use counts.
func TestCompressorMemory(t *testing.T) {
	dst := make([]byte, 0, 256<<10)
	content := runs(6, 2*SegmentSize, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	z := gzippers.New().(*gzipper)
	z.start(dst, SegmentSize, boundedStep)
	_, _ = z.Write(content)
	stream := z.finish()
	runtime.ReadMemStats(&after)
	if &stream[:1][0] != &dst[:1][0] {
		t.Fatalf("the %d-byte stream outgrew its %d-byte buffer", len(stream), cap(dst))
	}
	if held := after.TotalAlloc - before.TotalAlloc; held > 600<<10 {
		t.Errorf("a compressor allocates %d bytes, want at most %d", held, 600<<10)
	}
}

// A segmented stream is plain gzip: the standard library's reader and
// Gunzip inflate it whole, whatever its size. Gzip's stream of any
// content is exactly the one gzip.Writer writes at BestSpeed. Content of
// at most one segment has no table; longer content has one row per
// SegmentSize bytes, each with its content's CRC. Written with the
// bounded match skip, no stream here is longer than Gzip's, and the text
// behind the first noise run is found: at 64 KiB the stream is shorter.
// (That a Gear file's one segment is Gzip's stream is
// TestGearFilesStoreAsGzip.) And no stream depends on what the pooled
// compressor wrote before.
func TestSegmentedGzipIsPlainGzip(t *testing.T) {
	for _, size := range []int{0, 1, 4096, SegmentSize - 1, SegmentSize, SegmentSize + 1, 3 * SegmentSize, 300_017} {
		content := mixed(int64(size), size)
		z, segs := segmented(t, content)

		zr, err := gzip.NewReader(bytes.NewReader(z))
		if err != nil {
			t.Fatalf("%d bytes: gzip.NewReader: %v", size, err)
		}
		zr.Multistream(false)
		std, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(std, content) {
			t.Fatalf("%d bytes: compress/gzip reads other content: %v", size, err)
		}
		if rest, err := io.ReadAll(zr); len(rest) != 0 || err != nil {
			t.Fatalf("%d bytes: the stream is more than one member", size)
		}
		if got, err := Gunzip(z); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("%d bytes: Gunzip reads other content: %v", size, err)
		}

		var want bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&want, gzip.BestSpeed)
		_, _ = zw.Write(content)
		_ = zw.Close()
		plain, err := Gzip(content)
		if err != nil || !bytes.Equal(plain, want.Bytes()) {
			t.Errorf("%d bytes: Gzip is not gzip.Writer's stream: %v", size, err)
		}
		if len(z) > len(plain) {
			t.Errorf("%d bytes: the segmented stream takes %d bytes, Gzip's %d", size, len(z), len(plain))
		}
		if size == SegmentSize && len(z) == len(plain) {
			t.Errorf("%d bytes: the segmented stream is no shorter than Gzip's %d bytes", size, len(plain))
		}
		checkTable(t, content, z, segs)
	}

	content := mixed(1, 3*SegmentSize+5)
	first, segs := segmented(t, content)
	for _, before := range [][]byte{mixed(2, 5*SegmentSize), nil, bytes.Repeat([]byte("x"), SegmentSize+1)} {
		z, zsegs := segmented(t, before)
		if _, _, err := AppendRange(nil, z, zsegs, 0, int64(len(before))); err != nil {
			t.Fatal(err)
		}
		if again, _ := segmented(t, content); !bytes.Equal(again, first) {
			t.Fatalf("after compressing %d other bytes, the stream differs", len(before))
		}
	}
	// A range sent compressed is written by the same compressor: all of
	// the content is the stream GzipFrom wrote of it.
	got, gzipped, err := AppendRange([]byte("prefix"), first, segs, 0, int64(len(content)))
	if err != nil || !gzipped || string(got[:6]) != "prefix" || !bytes.Equal(got[6:], first) {
		t.Errorf("AppendRange of all the content does not append GzipFrom's stream (gzipped %v): %v", gzipped, err)
	}
}

// AppendRange sends a range compressed when the segments it lies in were
// stored compressed and its own stream is smaller, and raw otherwise;
// either way what it appends is the range.
func TestAppendRangeSendsWhatCompresses(t *testing.T) {
	noise := make([]byte, 3*SegmentSize)
	rand.New(rand.NewSource(16)).Read(noise)
	text := mixed(17, 3*SegmentSize)[SegmentSize : 2*SegmentSize] // the text run and the zeros
	content := append(append(noise[:0:0], noise...), bytes.Repeat(text, 3)...)
	z, segs := segmented(t, content)
	for _, c := range []struct {
		off, n  int64
		gzipped bool
	}{
		{1000, 16 << 10, false},                // noise: stored, sent raw
		{3*SegmentSize + 1000, 16 << 10, true}, // text: compressed
		{3*SegmentSize - 100, 200, false},      // both: tried, but no smaller compressed
		{2 * SegmentSize, int64(len(content)) - 2*SegmentSize, true},
	} {
		got, gzipped, err := AppendRange([]byte("x"), z, segs, c.off, c.n)
		if err != nil || gzipped != c.gzipped || got[0] != 'x' {
			t.Fatalf("[%d,+%d): gzipped %v, want %v: %v", c.off, c.n, gzipped, c.gzipped, err)
		}
		slice := got[1:]
		if gzipped {
			if slice, err = Gunzip(slice); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(slice, content[c.off:c.off+c.n]) {
			t.Errorf("[%d,+%d): appended other bytes", c.off, c.n)
		}
	}
}

// Streams written and read at once share the pooled compressors and
// inflaters, and never their bytes: each writer's stream and each
// reader's range are its own.
func TestPooledCodecsShareNoBytes(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			content := mixed(int64(g), 2*SegmentSize+1000*g)
			for i := 0; i < 20; i++ {
				z, segs, _, err := GzipFrom(bytes.NewReader(content), io.Discard)
				if err != nil {
					t.Error(err)
					return
				}
				off := (i * 7919) % (len(content) - 4096)
				got, gzipped, err := AppendRange(nil, z, segs, int64(off), 4096)
				if err == nil && gzipped {
					got, err = Gunzip(got)
				}
				if err != nil || !bytes.Equal(got, content[off:off+4096]) {
					t.Errorf("writer %d, round %d: the range is not its own bytes: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// GunzipRange is Gunzip sliced, for objects from empty to several
// segments, written by Gzip (one segment, no table) and by GzipFrom, and
// ranges at every edge, segment edges included.
func TestGunzipRangeMatchesGunzip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, size := range []int{0, 1, 100, 4096, 70_000, 300_000} {
		content := make([]byte, size)
		rng.Read(content[:size/2]) // half noise, half zeros: several block types
		plain, err := Gzip(content)
		if err != nil {
			t.Fatal(err)
		}
		seg, segs := segmented(t, content)
		ranges := [][2]int{{0, size}, {0, 0}, {size, 0}, {0, min(size, 1)}, {max(size-1, 0), min(size, 1)}}
		for _, edge := range []int{SegmentSize, 2 * SegmentSize, 4 * SegmentSize} {
			if edge < size {
				ranges = append(ranges, [2]int{edge - 1, 2}, [2]int{edge, 1}, [2]int{edge - 1, 1}, [2]int{edge - 10, SegmentSize + 20})
			}
		}
		for i := 0; i < 20 && size > 0; i++ {
			off := rng.Intn(size)
			ranges = append(ranges, [2]int{off, rng.Intn(size - off + 1)})
		}
		for _, stream := range []struct {
			z    []byte
			segs []Segment
		}{{plain, nil}, {seg, segs}} {
			whole, err := Gunzip(stream.z)
			if err != nil {
				t.Fatal(err)
			}
			// A range is read into the caller's memory when it fits there,
			// whatever that held, and into memory of its own when it does not.
			scratch := bytes.Repeat([]byte{0xAA}, 5000)
			for _, r := range ranges {
				if r[0]+r[1] > size {
					continue
				}
				for _, dst := range [][]byte{nil, scratch[:100]} {
					got, err := GunzipRange(dst, stream.z, stream.segs, int64(r[0]), int64(r[1]))
					if err != nil {
						t.Fatalf("%d-byte object, %d rows, range [%d,+%d): %v", size, len(stream.segs), r[0], r[1], err)
					}
					if !bytes.Equal(got, whole[r[0]:r[0]+r[1]]) {
						t.Errorf("%d-byte object, %d rows, range [%d,+%d): other bytes than Gunzip's", size, len(stream.segs), r[0], r[1])
					}
					if borrowed := len(got) > 0 && &got[0] == &scratch[0]; borrowed != (dst != nil && 0 < r[1] && r[1] <= cap(dst)) {
						t.Errorf("%d-byte object, range [%d,+%d) into %d bytes of room: borrowed %v", size, r[0], r[1], cap(dst), borrowed)
					}
				}
			}
			for _, r := range [][2]int64{{0, int64(size) + 1}, {int64(size), 1}, {int64(size) + 1, 0}, {-1, 1}, {0, -1}, {0, 1 << 40}} {
				if _, err := GunzipRange(nil, stream.z, stream.segs, r[0], r[1]); err == nil {
					t.Errorf("%d-byte object, range [%d,+%d) accepted", size, r[0], r[1])
				}
			}
		}
	}
}

// A range read answers for every segment it inflates, whole: a byte
// flipped anywhere in one of them — before the range, inside it, after
// it, in the sync flush that ends it — fails the read. A byte flipped in
// a segment the range does not overlap is not the range's to see: the
// range succeeds with the right bytes, and a whole download (Gunzip,
// which checks the trailer) fails. A stream of one segment is the case
// where that segment is the whole object, as it always was.
func TestGunzipRangeChecksTheTrailer(t *testing.T) {
	flip := func(z []byte, at int64) []byte {
		damaged := bytes.Clone(z)
		damaged[at] ^= 0xff
		if _, err := Gunzip(damaged); err == nil {
			t.Fatalf("byte %d: Gunzip accepts the damage, the case proves nothing", at)
		}
		return damaged
	}

	content := make([]byte, 200_000)
	rand.New(rand.NewSource(15)).Read(content)
	one, err := Gzip(content)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GunzipRange(nil, one, nil, 1000, 4096); err != nil {
		t.Fatalf("sound object: %v", err)
	}
	for _, at := range []int{len(one) / 2, len(one) - 20, len(one) - 6, len(one) - 2} { // late data, CRC, ISIZE
		if _, err := GunzipRange(nil, flip(one, int64(at)), nil, 1000, 4096); err == nil {
			t.Errorf("one segment, byte %d flipped after the range: range read accepted the object", at)
		}
	}

	content = mixed(15, 5*SegmentSize-3000)
	z, segs := segmented(t, content)
	end := func(i int) int64 { // one past segment i's deflate data
		if i+1 < len(segs) {
			return segs[i+1].Off
		}
		return int64(len(z)) - 8
	}
	for _, r := range [][2]int64{{SegmentSize + 1000, 4096}, {2*SegmentSize - 100, 200}} {
		off, n := r[0], r[1]
		firstSeg, lastSeg := int(off/SegmentSize), int((off+n-1)/SegmentSize)
		if got, err := GunzipRange(nil, z, segs, off, n); err != nil || !bytes.Equal(got, content[off:off+n]) {
			t.Fatalf("sound object, range [%d,+%d): %v", off, n, err)
		}
		for i := range segs {
			s, e := segs[i].Off, end(i)
			for _, at := range []int64{s, s + 1, (s + e) / 2, e - 6, e - 1} {
				got, err := GunzipRange(nil, flip(z, at), segs, off, n)
				overlapped := firstSeg <= i && i <= lastSeg
				switch {
				case overlapped && err == nil:
					t.Errorf("range [%d,+%d): byte %d of overlapped segment %d flipped, range read accepted it", off, n, at, i)
				case !overlapped && (err != nil || !bytes.Equal(got, content[off:off+n])):
					t.Errorf("range [%d,+%d): byte %d of segment %d flipped, range read failed: %v", off, n, at, i, err)
				}
			}
		}
		// The trailer's CRC belongs to no segment.
		if got, err := GunzipRange(nil, flip(z, int64(len(z))-6), segs, off, n); err != nil || !bytes.Equal(got, content[off:off+n]) {
			t.Errorf("range [%d,+%d): trailer CRC flipped, range read failed: %v", off, n, err)
		}
	}
}

// A declared size is honoured only within deflate's reach of the stored
// length.
func TestSizeHint(t *testing.T) {
	for _, c := range []struct {
		size, stored int64
		want         int
	}{
		{4096, 100, 4096},
		{0, 100, 0},
		{100*1032 + 64, 100, 100*1032 + 64},
		{100*1032 + 65, 100, 0},
		{1 << 40, 1 << 20, 0},
		{-1, 100, 0},
		{10, -1, 0}, // no stored length to hold the claim against
	} {
		if got := SizeHint(c.size, c.stored); got != c.want {
			t.Errorf("SizeHint(%d, %d) = %d, want %d", c.size, c.stored, got, c.want)
		}
	}
}

func TestUnpackGz(t *testing.T) {
	f := buildTree(t)
	g, err := UnpackGz(packGz(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if diff, ok := treeEqual(f, g); !ok {
		t.Errorf("gz round trip mismatch:\n%s", diff)
	}
}

func TestUnpackCorrupt(t *testing.T) {
	if _, err := Unpack([]byte("definitely not a tar archive")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestIsWhiteout(t *testing.T) {
	tests := []struct {
		name   string
		hidden string
		ok     bool
	}{
		{".wh.foo", "foo", true},
		{".wh..hidden", ".hidden", true},
		{OpaqueMarker, "", false},
		{"foo", "", false},
		{"wh.foo", "", false},
	}
	for _, tt := range tests {
		hidden, ok := IsWhiteout(tt.name)
		if hidden != tt.hidden || ok != tt.ok {
			t.Errorf("IsWhiteout(%q) = %q,%v; want %q,%v", tt.name, hidden, ok, tt.hidden, tt.ok)
		}
	}
}

func TestApplyLayerWhiteout(t *testing.T) {
	base := vfs.New()
	if err := base.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile("/d/gone", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile("/d/kept", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}

	layer := vfs.New()
	if err := layer.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := layer.WriteFile("/d/.wh.gone", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := layer.WriteFile("/d/new", []byte("z"), 0o644); err != nil {
		t.Fatal(err)
	}

	ApplyLayer(base, layer)
	if base.Exists("/d/gone") {
		t.Error("whiteout did not delete /d/gone")
	}
	for p, want := range map[string]string{"/d/kept": "y", "/d/new": "z"} {
		got, err := base.ReadFile(p)
		if err != nil || string(got) != want {
			t.Errorf("ReadFile(%s) = %q, %v; want %q", p, got, err, want)
		}
	}
	if base.Exists("/d/.wh.gone") {
		t.Error("whiteout marker leaked into base")
	}
}

func TestApplyLayerOpaqueBeforeSiblings(t *testing.T) {
	// Regression: the opaque marker sorts after dot-files like ".bashrc";
	// it must still clear only LOWER content, never this layer's entries.
	base := vfs.New()
	if err := base.MkdirAll("/home", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile("/home/old", []byte("lower"), 0o644); err != nil {
		t.Fatal(err)
	}

	layer := vfs.New()
	if err := layer.MkdirAll("/home", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := layer.WriteFile("/home/"+OpaqueMarker, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := layer.WriteFile("/home/.bashrc", []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}

	ApplyLayer(base, layer)
	if base.Exists("/home/old") {
		t.Error("opaque marker did not clear lower content")
	}
	got, err := base.ReadFile("/home/.bashrc")
	if err != nil || string(got) != "new" {
		t.Errorf("/home/.bashrc = %q, %v; layer entry erased by opaque marker", got, err)
	}
}

func TestApplyLayerOpaqueFlag(t *testing.T) {
	base := vfs.New()
	if err := base.MkdirAll("/opt", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile("/opt/lower", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	layer := vfs.New()
	if err := layer.MkdirAll("/opt", 0o755); err != nil {
		t.Fatal(err)
	}
	n, err := layer.Stat("/opt")
	if err != nil {
		t.Fatal(err)
	}
	n.Opaque = true
	ApplyLayer(base, layer)
	if base.Exists("/opt/lower") {
		t.Error("Opaque flag not honored")
	}
}

// A directory entry sets its directory's mode, over a directory base
// holds already and over one an opaque marker cleared, as the
// container's view does: a chmod and a re-created directory survive a
// commit and a pull.
func TestApplyLayerDirectoryEntrySetsMode(t *testing.T) {
	base := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(base.MkdirAll("/etc", 0o755))
	must(base.WriteFile("/etc/old", []byte("old"), 0o644))
	must(base.MkdirAll("/srv", 0o755))

	layer := vfs.New()
	must(layer.Mkdir("/etc", 0o700))
	must(layer.WriteFile("/etc/"+OpaqueMarker, nil, 0))
	must(layer.WriteFile("/etc/new", []byte("new"), 0o600))
	must(layer.Mkdir("/srv", 0o750))
	ApplyLayer(base, layer)

	for p, want := range map[string]fs.FileMode{"/etc": 0o700, "/srv": 0o750} {
		if n := base.Lookup(p); n == nil || n.Mode() != want {
			t.Errorf("%s = %v, want mode %o", p, n, want)
		}
	}
	if base.Exists("/etc/old") || !base.Exists("/etc/new") {
		t.Error("opaque /etc: lower entry kept or layer entry lost")
	}
}

// Whiteouts and opaque markers hide what the layers below hold, never
// what the layer itself carries, whichever way the names sort ("-d"
// sorts before ".wh.-d"); and below what base holds as a file there is
// nothing for them to hide.
func TestApplyLayerHidesOnlyWhatIsBelow(t *testing.T) {
	base := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(base.WriteFile("/-d", []byte("a file below"), 0o644))
	must(base.WriteFile("/a", []byte("a file below"), 0o644))

	layer := vfs.New()
	must(layer.WriteFile("/"+WhiteoutPrefix+"-d", nil, 0))
	must(layer.Mkdir("/-d", 0o755))
	must(layer.WriteFile("/-d/f", []byte("f"), 0o644))
	must(layer.Mkdir("/a", 0o755))
	must(layer.WriteFile("/a/"+WhiteoutPrefix+"x", nil, 0))
	must(layer.Mkdir("/a/sub", 0o755))
	must(layer.WriteFile("/a/sub/"+OpaqueMarker, nil, 0))
	ApplyLayer(base, layer)

	for _, p := range []string{"/-d/f", "/a/sub"} {
		if !base.Exists(p) {
			t.Errorf("%s lost", p)
		}
	}
}

// A whiteout whose name names no entry — ".wh.", ".wh..", ".wh..." —
// hides nothing, where joining it to its directory would name the
// directory itself or its parent.
func TestApplyLayerWhiteoutOfNoName(t *testing.T) {
	base := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(base.MkdirAll("/keep/sub", 0o755))
	must(base.WriteFile("/keep/sub/x", []byte("x"), 0o644))
	must(base.WriteFile("/kept", []byte("k"), 0o644))

	layer := vfs.New()
	must(layer.MkdirAll("/keep/sub", 0o755))
	for _, name := range []string{WhiteoutPrefix, WhiteoutPrefix + ".", WhiteoutPrefix + ".."} {
		must(layer.WriteFile("/keep/sub/"+name, nil, 0))
	}
	ApplyLayer(base, layer)
	for _, p := range []string{"/keep/sub/x", "/kept"} {
		if !base.Exists(p) {
			t.Errorf("%s deleted by a whiteout of no name", p)
		}
	}
}

func TestApplyLayerTypeReplacements(t *testing.T) {
	base := vfs.New()
	if err := base.MkdirAll("/a/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile("/a/dir/child", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile("/a/file", []byte("f"), 0o644); err != nil {
		t.Fatal(err)
	}

	layer := vfs.New()
	if err := layer.MkdirAll("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	// dir -> regular file
	if err := layer.WriteFile("/a/dir", []byte("now a file"), 0o644); err != nil {
		t.Fatal(err)
	}
	// file -> dir
	if err := layer.MkdirAll("/a/file", 0o755); err != nil {
		t.Fatal(err)
	}

	ApplyLayer(base, layer)
	n, err := base.Stat("/a/dir")
	if err != nil || n.Type() != vfs.TypeRegular {
		t.Errorf("/a/dir = %v, %v; want regular", n, err)
	}
	n, err = base.Stat("/a/file")
	if err != nil || !n.IsDir() {
		t.Errorf("/a/file = %v, %v; want dir", n, err)
	}
}

func TestDiffAndApplyBasic(t *testing.T) {
	base := buildTree(t)
	next := base.Clone()
	if err := next.WriteFile("/etc/app/conf", []byte("key=other\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := next.WriteFile("/etc/app/extra", []byte("e"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := next.Remove("/usr/bin/app-latest"); err != nil {
		t.Fatal(err)
	}

	layer, err := Diff(base, next)
	if err != nil {
		t.Fatal(err)
	}
	if whiteouts, _ := layerCounts(layer); whiteouts != 1 {
		t.Errorf("whiteouts = %d, want 1", whiteouts)
	}

	got := base.Clone()
	ApplyLayer(got, layer)
	if diff, ok := treeEqual(got, next); !ok {
		t.Errorf("apply(diff) != next:\n%s", diff)
	}
}

func TestDiffEmptyForIdenticalTrees(t *testing.T) {
	base := buildTree(t)
	layer, err := Diff(base, base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if whiteouts, payload := layerCounts(layer); payload != 0 || whiteouts != 0 {
		t.Errorf("diff of identical trees: %d whiteouts, %d bytes", whiteouts, payload)
	}
}

func TestDiffDeletedSubtreeEmitsSingleWhiteout(t *testing.T) {
	base := vfs.New()
	if err := base.MkdirAll("/big/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := base.WriteFile(fmt.Sprintf("/big/sub/f%d", i), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	next := vfs.New()
	layer, err := Diff(base, next)
	if err != nil {
		t.Fatal(err)
	}
	if whiteouts, _ := layerCounts(layer); whiteouts != 1 {
		t.Errorf("whiteouts = %d, want 1 (only the subtree root)", whiteouts)
	}
	got := base.Clone()
	ApplyLayer(got, layer)
	if got.Exists("/big") {
		t.Error("subtree not removed")
	}
}

// layerCounts is how many whiteout and opaque markers layer holds, and
// how many bytes its other regular files do.
func layerCounts(layer *vfs.FS) (whiteouts int, payload int64) {
	_ = layer.Walk(func(p string, n *vfs.Node) error {
		name := path.Base(p)
		if _, ok := IsWhiteout(name); ok || name == OpaqueMarker {
			whiteouts++
		} else if n.Type() == vfs.TypeRegular {
			payload += n.Size()
		}
		return nil
	})
	return whiteouts, payload
}

// randomMutate applies n random mutations to f.
func randomMutate(f *vfs.FS, rng *rand.Rand, n int) {
	var files, dirs []string
	collect := func() {
		files, dirs = nil, []string{"/"}
		_ = f.Walk(func(p string, node *vfs.Node) error {
			if node.IsDir() {
				dirs = append(dirs, p)
			} else {
				files = append(files, p)
			}
			return nil
		})
	}
	for i := 0; i < n; i++ {
		collect()
		switch rng.Intn(5) {
		case 0: // new file
			d := dirs[rng.Intn(len(dirs))]
			data := make([]byte, rng.Intn(32))
			rng.Read(data)
			_ = f.WriteFile(path.Join(d, fmt.Sprintf("nf%d", rng.Int31())), data, 0o644)
		case 1: // new dir
			d := dirs[rng.Intn(len(dirs))]
			_ = f.Mkdir(path.Join(d, fmt.Sprintf("nd%d", rng.Int31())), 0o755)
		case 2: // modify file
			if len(files) > 0 {
				p := files[rng.Intn(len(files))]
				_ = f.WriteFile(p, []byte(fmt.Sprintf("mod%d", rng.Int31())), 0o644)
			}
		case 3: // delete something
			if len(files) > 0 {
				_ = f.RemoveAll(files[rng.Intn(len(files))])
			} else if len(dirs) > 1 {
				_ = f.RemoveAll(dirs[1+rng.Intn(len(dirs)-1)])
			}
		default: // symlink
			d := dirs[rng.Intn(len(dirs))]
			_ = f.Symlink("/etc", path.Join(d, fmt.Sprintf("ln%d", rng.Int31())))
		}
	}
}

// Property: ApplyLayer(base, Diff(base, next)) is next in every entry's
// type, mode, content and target — directly and through a tar round
// trip of the layer — for arbitrary mutation sequences, including ones
// that re-mode directories and replace directories with files and files
// with directories (reshape).
func TestDiffApplyRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := vfs.New()
		randomMutate(base, rng, 30)
		reshape(base, rng, 10)
		next := base.Clone()
		randomMutate(next, rng, 20)
		reshape(next, rng, 8)

		layer, err := Diff(base, next)
		if err != nil {
			t.Logf("seed %d: Diff: %v", seed, err)
			return false
		}
		data, err := Pack(layer)
		if err != nil {
			return false
		}
		unpacked, err := Unpack(data)
		if err != nil {
			return false
		}
		for _, l := range []*vfs.FS{layer, unpacked} {
			got := base.Clone()
			ApplyLayer(got, l)
			if diff, ok := treeEqual(got, next); !ok {
				t.Logf("seed %d: apply(diff) != next:\n%s", seed, diff)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// reshape applies n random edits to f that change what a path is rather
// than what a file holds: a directory's mode, a directory replaced by a
// file or a symlink, a file or a symlink replaced by a directory, and
// new directories named to sort before the whiteout prefix ("-d" <
// ".wh.-d"), so that a whiteout and the entry that replaces what it
// hides meet in either order.
func reshape(f *vfs.FS, rng *rand.Rand, n int) {
	modes := []fs.FileMode{0o700, 0o750, 0o755}
	for i := 0; i < n; i++ {
		var all, dirs []string
		_ = f.Walk(func(p string, node *vfs.Node) error {
			all = append(all, p)
			if node.IsDir() {
				dirs = append(dirs, p)
			}
			return nil
		})
		mode := modes[rng.Intn(len(modes))]
		switch rng.Intn(4) {
		case 0: // chmod
			if len(dirs) > 0 {
				f.Lookup(dirs[rng.Intn(len(dirs))]).SetMode(mode)
			}
		case 1: // whatever it was, now a directory holding a file
			if len(all) > 0 {
				p := all[rng.Intn(len(all))]
				_ = f.RemoveAll(p)
				_ = f.Mkdir(p, mode)
				_ = f.WriteFile(p+"/in", []byte(p), 0o644)
			}
		case 2: // whatever it was, now a file or a symlink
			if len(all) > 0 {
				p := all[rng.Intn(len(all))]
				_ = f.RemoveAll(p)
				if rng.Intn(2) == 0 {
					_ = f.WriteFile(p, []byte("was "+p), 0o600)
				} else {
					_ = f.Symlink("/elsewhere", p)
				}
			}
		default:
			d := "/"
			if len(dirs) > 0 {
				d = dirs[rng.Intn(len(dirs))]
			}
			p := path.Join(d, fmt.Sprintf("-d%d", rng.Intn(4)))
			if f.Mkdir(p, mode) == nil {
				_ = f.WriteFile(p+"/f", []byte("x"), 0o644)
			}
		}
	}
}

// Property: Pack is deterministic for random trees.
func TestPackDeterministicProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := vfs.New()
		randomMutate(f, rng, 40)
		a, err := Pack(f)
		if err != nil {
			return false
		}
		b, err := Pack(f.Clone())
		if err != nil {
			return false
		}
		return bytes.Equal(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPack(b *testing.B) {
	f := vfs.New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 2048)
		rng.Read(data)
		if err := f.WriteFile(fmt.Sprintf("/f%03d", i), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(200 * 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyLayer(b *testing.B) {
	base := vfs.New()
	layer := vfs.New()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		data := make([]byte, 512)
		rng.Read(data)
		if err := base.WriteFile(fmt.Sprintf("/f%03d", i), data, 0o644); err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			if err := layer.WriteFile(fmt.Sprintf("/f%03d", i), []byte("new"), 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// ApplyLayer spends its layer: each run applies a clone.
		target := base.Clone()
		ApplyLayer(target, layer.Clone())
	}
}

// packGz is the tree as an image layer stores it: its tar, gzipped.
func packGz(tb testing.TB, f *vfs.FS) []byte {
	tb.Helper()
	raw, err := Pack(f)
	if err != nil {
		tb.Fatal(err)
	}
	z, err := Gzip(raw)
	if err != nil {
		tb.Fatal(err)
	}
	return z
}

// TestGzipPooledReuseIsolated asserts pooled codec state never leaks
// between calls: interleaved compress/decompress cycles of different
// payloads must round-trip independently.
func TestGzipPooledReuseIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = make([]byte, 100+i*777)
		rng.Read(payloads[i])
	}
	zipped := make([][]byte, len(payloads))
	for i, p := range payloads {
		z, err := Gzip(p)
		if err != nil {
			t.Fatal(err)
		}
		zipped[i] = z
	}
	for i := len(zipped) - 1; i >= 0; i-- {
		got, err := Gunzip(zipped[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("payload %d corrupted after pooled round trip", i)
		}
	}
}

func benchTree(b *testing.B, files, size int) *vfs.FS {
	b.Helper()
	f := vfs.New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < files; i++ {
		data := make([]byte, size)
		rng.Read(data)
		if err := f.WriteFile(fmt.Sprintf("/f%03d", i), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// BenchmarkGzipRoundTrip measures the pooled compress/decompress pair
// used on the wire paths (uploads, downloads, peer transfers).
func BenchmarkGzipRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 256<<10)
	rng.Read(data)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, err := Gzip(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Gunzip(z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGzipFromMixed measures the pool's compressor on content in
// the shape of the benchmark's read corpus (runs): what an upload pays
// to be stored.
func BenchmarkGzipFromMixed(b *testing.B) {
	data := runs(7, 1<<20, 40_000)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := GzipFrom(bytes.NewReader(data), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGzipLarge compresses one 32 MiB stream in the shape of the
// benchmark's read corpus with Gzip: a layer of the size the read
// workloads build, many blocks long.
func BenchmarkGzipLarge(b *testing.B) {
	data := runs(8, 32<<20, 0)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Gzip(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnpackGz measures the full decode path a puller runs per
// layer: gunzip plus tar extraction into a fresh tree.
func BenchmarkUnpackGz(b *testing.B) {
	z := packGz(b, benchTree(b, 100, 4096))
	b.ReportAllocs()
	b.SetBytes(100 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnpackGz(z); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUnpackGzStreamingParity guards the pooled streaming decode:
// UnpackGz feeds the gzip reader straight into the tar parser, and the
// tree it builds must re-pack to the exact bytes of the two-step
// Gunzip-then-Unpack path (and of the original archive). Corruption
// anywhere in the member — including the trailing CRC the tar parser
// never reads past — must still be rejected.
func TestUnpackGzStreamingParity(t *testing.T) {
	f := buildTree(t)
	plain, err := Pack(f)
	if err != nil {
		t.Fatal(err)
	}
	z := packGz(t, f)
	streamed, err := UnpackGz(z)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Gunzip(z)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Pack(streamed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pack(staged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("streamed and staged decode repack to different bytes")
	}
	if !bytes.Equal(a, plain) {
		t.Error("streamed decode repack differs from the original archive")
	}

	// A flipped CRC byte sits after the end-of-archive trailer the tar
	// parser stops at; the drain must still surface it.
	bad := append([]byte(nil), z...)
	bad[len(bad)-8] ^= 0xff
	if _, err := UnpackGz(bad); err == nil {
		t.Error("UnpackGz accepted a corrupt gzip checksum")
	}
	if _, err := UnpackGz(z[:len(z)/2]); err == nil {
		t.Error("UnpackGz accepted a truncated member")
	}
	if _, err := UnpackGz([]byte("not gzip")); err == nil {
		t.Error("UnpackGz accepted garbage")
	}
}

// ReadFileGz answers for every path as the unpacked tree does — the
// content of a regular file, ErrNotExist for anything else — with the
// archive's length either way, and judges the archive by the same
// checks: a bad CRC behind the trailer, a truncated member, an entry of
// a type no tree holds.
func TestReadFileGzMatchesUnpackedTree(t *testing.T) {
	f := buildTree(t)
	z := packGz(t, f)
	tree, err := UnpackGz(z)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Gunzip(z)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/etc/app/conf", "/usr/bin/app", "/usr/bin/app-latest", "/etc/app", "/etc", "/missing", "/etc/app/conf/under"} {
		want, werr := tree.ReadFile(p)
		got, n, gerr := ReadFileGz(z, p)
		if (gerr == nil) != (werr == nil) || got != string(want) {
			t.Errorf("ReadFileGz(%s) = %q, %v; the tree reads %q, %v", p, got, gerr, want, werr)
		}
		if n != int64(len(raw)) {
			t.Errorf("ReadFileGz(%s) sized the archive %d bytes, want %d", p, n, len(raw))
		}
		if gerr != nil && !errors.Is(gerr, vfs.ErrNotExist) {
			t.Errorf("ReadFileGz(%s) = %v, want ErrNotExist", p, gerr)
		}
	}

	bad := append([]byte(nil), z...)
	bad[len(bad)-8] ^= 0xff
	if _, _, err := ReadFileGz(bad, "/etc/app/conf"); err == nil {
		t.Error("ReadFileGz accepted a corrupt gzip checksum")
	}
	if _, _, err := ReadFileGz(z[:len(z)/2], "/etc/app/conf"); err == nil {
		t.Error("ReadFileGz accepted a truncated member")
	}

	// A later entry for the same name replaces an earlier one, and an
	// entry type no tree holds fails the read wherever it sits.
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, e := range []struct {
		hdr  tar.Header
		body string
	}{
		{tar.Header{Name: "f", Typeflag: tar.TypeReg, Mode: 0o644, Size: 3}, "old"},
		{tar.Header{Name: "./f", Typeflag: tar.TypeReg, Mode: 0o644, Size: 3}, "new"},
		{tar.Header{Name: "g", Typeflag: tar.TypeReg, Mode: 0o644, Size: 1}, "g"},
		{tar.Header{Name: "g", Typeflag: tar.TypeSymlink, Linkname: "f"}, ""},
	} {
		if err := tw.WriteHeader(&e.hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte(e.body)); err != nil {
			t.Fatal(err)
		}
	}
	fifo := buf.Len()
	if err := tw.WriteHeader(&tar.Header{Name: "pipe", Typeflag: tar.TypeFifo}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	withFifo, err := Gzip(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFileGz(withFifo, "/f"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadFileGz of an archive with a fifo = %v, want ErrCorrupt", err)
	}
	sound, err := Gzip(append(buf.Bytes()[:fifo:fifo], make([]byte, 1024)...))
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := ReadFileGz(sound, "/f"); err != nil || string(got) != "new" {
		t.Errorf("ReadFileGz(/f) = %q, %v, want the later entry", got, err)
	}
	if _, _, err := ReadFileGz(sound, "/g"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("ReadFileGz(/g), a file replaced by a symlink = %v, want ErrNotExist", err)
	}
}

// GunzipTo streams what Gunzip returns, and fails where it fails.
func TestGunzipToMatchesGunzip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{0, 1, copyChunk - 1, copyChunk, 3*copyChunk + 17} {
		data := make([]byte, size)
		rng.Read(data[:size/2]) // half noise, half zeros
		z, err := Gzip(data)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		n, err := GunzipTo(&out, z)
		if err != nil || n != int64(size) || !bytes.Equal(out.Bytes(), data) {
			t.Errorf("GunzipTo of %d bytes wrote %d, %v", size, n, err)
		}
		bad := append([]byte(nil), z...)
		bad[len(bad)-8] ^= 0xff
		if _, err := GunzipTo(&out, bad); err == nil {
			t.Errorf("GunzipTo accepted a corrupt checksum (%d bytes)", size)
		}
	}
	if _, err := GunzipTo(&bytes.Buffer{}, []byte("not gzip")); err == nil {
		t.Error("GunzipTo accepted garbage")
	}
}

// rawEntry is one entry of a hand-written archive.
type rawEntry struct {
	tar.Header
	content string
}

// rawTar writes the given entries, in order, as a tar archive: unlike
// Pack it can name one path twice.
func rawTar(t *testing.T, entries ...rawEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, e := range entries {
		e.Size = int64(len(e.content))
		if err := tw.WriteHeader(&e.Header); err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(tw, e.content); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// UnpackGzKeep shows every regular file to Keep exactly once — borrowed
// when small, in a buffer of its own when not — holds in the tree what
// Keep answers, and builds UnpackGz's tree, entries that replace earlier
// ones included.
func TestUnpackGzKeep(t *testing.T) {
	file := func(name, content string) rawEntry {
		return rawEntry{tar.Header{Name: name, Typeflag: tar.TypeReg, Mode: 0o644}, content}
	}
	big := strings.Repeat("weights ", smallEntry/8+1)
	edge := strings.Repeat("e", smallEntry)
	entries := []rawEntry{
		{Header: tar.Header{Name: "d/", Typeflag: tar.TypeDir, Mode: 0o755}},
		file("d/a", "first"), file("d/b", "shared bytes"), file("d/c", "shared bytes"),
		file("d/a", "second"), // replaces
		{Header: tar.Header{Name: "d/b", Typeflag: tar.TypeSymlink, Linkname: "a"}}, // replaces a file whose Keep may still be running
		file("d/big", big), file("d/edge", edge), file("d/empty", ""),
		{Header: tar.Header{Name: "e/", Typeflag: tar.TypeDir, Mode: 0o700}},
		file("e/deep/f", "parent made on the way"),
	}
	regular := 8 + 40
	for i := 0; i < 40; i++ {
		entries = append(entries, file(fmt.Sprintf("e/n%02d", i), fmt.Sprintf("file %d", i%7)))
	}
	gz, err := Gzip(rawTar(t, entries...))
	if err != nil {
		t.Fatal(err)
	}
	want, err := UnpackGz(gz)
	if err != nil {
		t.Fatal(err)
	}
	wantPacked, err := Pack(want)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := want.ReadFile("/d/a"); err != nil || string(data) != "second" {
		t.Fatalf("/d/a = %q, %v", data, err)
	}
	if n, err := want.Stat("/d/b"); err != nil || n.Type() != vfs.TypeSymlink {
		t.Fatalf("/d/b is not the symlink that replaced it: %v", err)
	}

	var mu sync.Mutex
	held := make(map[string][]byte) // one slice per content, as the converter's table holds
	calls := 0
	keep := func(content []byte, borrowed bool) []byte {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if borrowed != (len(content) <= smallEntry) {
			t.Errorf("%d-byte content borrowed=%v", len(content), borrowed)
		}
		if h, ok := held[string(content)]; ok {
			return h
		}
		if borrowed {
			content = append([]byte(nil), content...)
		}
		held[string(content)] = content
		return content
	}
	got, err := UnpackGzKeep(gz, keep)
	if err != nil {
		t.Fatal(err)
	}
	gotPacked, err := Pack(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPacked, wantPacked) {
		t.Error("tree differs from UnpackGz's")
	}
	if calls != regular {
		t.Errorf("Keep called %d times for %d regular files", calls, regular)
	}
	b, _ := got.ReadFile("/d/c")
	if len(b) == 0 || &b[0] != &held["shared bytes"][0] {
		t.Error("the tree does not hold the slice Keep answered")
	}

	// A cut-off archive fails, with no goroutine left holding a buffer.
	cut, err := Gzip(rawTar(t, entries...)[:3000])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnpackGzKeep(cut, ownCopy); !errors.Is(err, ErrCorrupt) {
		t.Errorf("cut-off archive: %v, want ErrCorrupt", err)
	}
}

// The entries read while a file over smallEntry is kept beside the
// reader — small files through the one scratch, directories and
// symlinks — queue behind it, and with a Keep that takes its time the
// tree is still UnpackGz's, built in archive order.
func TestUnpackQueuesBehindBigFile(t *testing.T) {
	sizes := []int{900 << 10, 300 << 10, smallEntry, 0, 700 << 10, smallEntry + 1, 1, 999 << 10}
	var entries []rawEntry
	for i := 0; i < 16; i++ {
		if i%5 == 0 {
			entries = append(entries, rawEntry{Header: tar.Header{Name: fmt.Sprintf("d%02d/", i), Typeflag: tar.TypeDir, Mode: 0o755}})
		}
		if i%7 == 0 {
			entries = append(entries, rawEntry{Header: tar.Header{Name: fmt.Sprintf("d%02d/link%d", i/5*5, i), Typeflag: tar.TypeSymlink, Linkname: "elsewhere"}})
		}
		// Each file's bytes are its own, so one overwritten by another
		// shows; runs of them compress fast.
		content := strings.Repeat(string(rune('A'+i)), sizes[i%len(sizes)])
		entries = append(entries, rawEntry{Header: tar.Header{Name: fmt.Sprintf("d%02d/f%02d", i/5*5, i), Typeflag: tar.TypeReg, Mode: 0o644}, content: content})
	}
	gz, err := Gzip(rawTar(t, entries...))
	if err != nil {
		t.Fatal(err)
	}
	want, err := UnpackGz(gz)
	if err != nil {
		t.Fatal(err)
	}
	wantPacked, err := Pack(want)
	if err != nil {
		t.Fatal(err)
	}
	slowCopy := func(content []byte, borrowed bool) []byte {
		time.Sleep(time.Millisecond)
		return ownCopy(content, borrowed)
	}
	got, err := UnpackGzKeep(gz, slowCopy)
	if err != nil {
		t.Fatal(err)
	}
	gotPacked, err := Pack(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPacked, wantPacked) {
		t.Error("tree differs from UnpackGz's")
	}
}

// GzipFrom is one stream of what the reader holds, however the bytes
// arrive, and every byte passes the tee. (Which stream that is, beside
// Gzip's, is TestSegmentedGzipIsPlainGzip and TestGearFilesStoreAsGzip.)
func TestGzipFromMatchesGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{0, 1, 4 << 10, copyChunk, SegmentSize, 300<<10 + 17} {
		data := make([]byte, size)
		rng.Read(data[:size/2])
		want, wantSegs := segmented(t, data)
		for name, r := range map[string]io.Reader{
			"whole":     bytes.NewReader(data),
			"streamed":  struct{ io.Reader }{bytes.NewReader(data)},
			"byte-wise": iotest.OneByteReader(bytes.NewReader(data)),
		} {
			if size > copyChunk && name == "byte-wise" {
				continue
			}
			var tee bytes.Buffer
			got, segs, n, err := GzipFrom(r, &tee)
			if err != nil || n != int64(size) || !bytes.Equal(got, want) || !slices.Equal(segs, wantSegs) || !bytes.Equal(tee.Bytes(), data) {
				t.Errorf("%d bytes %s: n=%d err=%v, stream equal: %v, table equal: %v, tee equal: %v",
					size, name, n, err, bytes.Equal(got, want), slices.Equal(segs, wantSegs), bytes.Equal(tee.Bytes(), data))
			}
		}
	}
	if _, _, _, err := GzipFrom(iotest.ErrReader(errors.New("source broke")), io.Discard); err == nil {
		t.Error("a failing source compressed")
	}
}
