package tarstream

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"testing/quick"

	"github.com/gear-image/gear/internal/vfs"
)

// buildTree constructs a small fixture tree.
func buildTree(t *testing.T) *vfs.FS {
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
	ga, err := PackGz(f)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := PackGz(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, gb) {
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

// GunzipRange is Gunzip sliced, for objects from empty to several
// deflate blocks and ranges at every edge.
func TestGunzipRangeMatchesGunzip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, size := range []int{0, 1, 100, 4096, 70_000, 300_000} {
		content := make([]byte, size)
		rng.Read(content[:size/2]) // half noise, half zeros: several block types
		z, err := Gzip(content)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := Gunzip(z)
		if err != nil {
			t.Fatal(err)
		}
		ranges := [][2]int{{0, size}, {0, 0}, {size, 0}, {0, min(size, 1)}, {max(size-1, 0), min(size, 1)}}
		for i := 0; i < 20 && size > 0; i++ {
			off := rng.Intn(size)
			ranges = append(ranges, [2]int{off, rng.Intn(size - off + 1)})
		}
		// A range is read into the caller's memory when it fits there,
		// whatever that held, and into memory of its own when it does not.
		scratch := bytes.Repeat([]byte{0xAA}, 5000)
		for _, r := range ranges {
			for _, dst := range [][]byte{nil, scratch[:100]} {
				got, err := GunzipRange(dst, z, int64(r[0]), int64(r[1]))
				if err != nil {
					t.Fatalf("%d-byte object, range [%d,+%d): %v", size, r[0], r[1], err)
				}
				if !bytes.Equal(got, whole[r[0]:r[0]+r[1]]) {
					t.Errorf("%d-byte object, range [%d,+%d): other bytes than Gunzip's", size, r[0], r[1])
				}
				if borrowed := len(got) > 0 && &got[0] == &scratch[0]; borrowed != (dst != nil && 0 < r[1] && r[1] <= cap(dst)) {
					t.Errorf("%d-byte object, range [%d,+%d) into %d bytes of room: borrowed %v", size, r[0], r[1], cap(dst), borrowed)
				}
			}
		}
		for _, r := range [][2]int64{{0, int64(size) + 1}, {int64(size), 1}, {int64(size) + 1, 0}, {-1, 1}, {0, -1}, {0, 1 << 40}} {
			if _, err := GunzipRange(nil, z, r[0], r[1]); err == nil {
				t.Errorf("%d-byte object, range [%d,+%d) accepted", size, r[0], r[1])
			}
		}
	}
}

// A range read answers for the whole object: damage behind the bytes it
// returns still fails it, because the stream is inflated to the trailer
// and the CRC is checked there, exactly as Gunzip checks it.
func TestGunzipRangeChecksTheTrailer(t *testing.T) {
	content := make([]byte, 200_000)
	rand.New(rand.NewSource(15)).Read(content)
	z, err := Gzip(content)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GunzipRange(nil, z, 1000, 4096); err != nil {
		t.Fatalf("sound object: %v", err)
	}
	for _, at := range []int{len(z) / 2, len(z) - 20, len(z) - 6, len(z) - 2} { // late data, CRC, ISIZE
		damaged := append([]byte(nil), z...)
		damaged[at] ^= 0x40
		if _, err := Gunzip(damaged); err == nil {
			t.Fatalf("byte %d: Gunzip accepts the damage, the case proves nothing", at)
		}
		if _, err := GunzipRange(nil, damaged, 1000, 4096); err == nil {
			t.Errorf("byte %d flipped after the range: range read accepted the object", at)
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
	data, err := PackGz(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnpackGz(data)
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

	if err := ApplyLayer(base, layer); err != nil {
		t.Fatal(err)
	}
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

	if err := ApplyLayer(base, layer); err != nil {
		t.Fatal(err)
	}
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
	if err := ApplyLayer(base, layer); err != nil {
		t.Fatal(err)
	}
	if base.Exists("/opt/lower") {
		t.Error("Opaque flag not honored")
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

	if err := ApplyLayer(base, layer); err != nil {
		t.Fatal(err)
	}
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
	s := StatsOf(layer)
	if s.Whiteouts != 1 {
		t.Errorf("whiteouts = %d, want 1", s.Whiteouts)
	}

	got := base.Clone()
	if err := ApplyLayer(got, layer); err != nil {
		t.Fatal(err)
	}
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
	s := StatsOf(layer)
	if s.Bytes != 0 || s.Whiteouts != 0 {
		t.Errorf("diff of identical trees: %+v", s)
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
	s := StatsOf(layer)
	if s.Whiteouts != 1 {
		t.Errorf("whiteouts = %d, want 1 (only the subtree root)", s.Whiteouts)
	}
	got := base.Clone()
	if err := ApplyLayer(got, layer); err != nil {
		t.Fatal(err)
	}
	if got.Exists("/big") {
		t.Error("subtree not removed")
	}
}

func TestStatsOf(t *testing.T) {
	layer := vfs.New()
	if err := layer.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := layer.WriteFile("/d/f", make([]byte, 10), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := layer.WriteFile("/d/.wh.x", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := layer.WriteFile("/d/"+OpaqueMarker, nil, 0); err != nil {
		t.Fatal(err)
	}
	s := StatsOf(layer)
	if s.Entries != 2 || s.Whiteouts != 2 || s.Bytes != 10 {
		t.Errorf("stats = %+v", s)
	}
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

// Property: ApplyLayer(base, Diff(base, next)) reconstructs next exactly,
// for arbitrary mutation sequences, and the layer survives a tar round
// trip unchanged.
func TestDiffApplyRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := vfs.New()
		randomMutate(base, rng, 30)
		next := base.Clone()
		randomMutate(next, rng, 20)

		layer, err := Diff(base, next)
		if err != nil {
			return false
		}
		// Tar round trip of the layer.
		data, err := Pack(layer)
		if err != nil {
			return false
		}
		layer2, err := Unpack(data)
		if err != nil {
			return false
		}
		got := base.Clone()
		if err := ApplyLayer(got, layer2); err != nil {
			return false
		}
		_, ok := treeEqual(got, next)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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
		target := base.Clone()
		if err := ApplyLayer(target, layer); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPackGzMatchesGzipOfPack pins the streaming PackGz path to the
// composed form byte for byte: layer digests depend on the exact gzip
// framing, so the zero-copy path must not change a single bit.
func TestPackGzMatchesGzipOfPack(t *testing.T) {
	f := buildTree(t)
	streamed, err := PackGz(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Pack(f)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := Gzip(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, composed) {
		t.Fatalf("PackGz (%d bytes) != Gzip(Pack(...)) (%d bytes)", len(streamed), len(composed))
	}
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

// BenchmarkPackGz measures the streaming compressed-pack path used by
// every registry push.
func BenchmarkPackGz(b *testing.B) {
	f := benchTree(b, 200, 2048)
	b.ReportAllocs()
	b.SetBytes(200 * 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PackGz(f); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkUnpackGz measures the full decode path a puller runs per
// layer: gunzip plus tar extraction into a fresh tree.
func BenchmarkUnpackGz(b *testing.B) {
	f := benchTree(b, 100, 4096)
	z, err := PackGz(f)
	if err != nil {
		b.Fatal(err)
	}
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
	z, err := PackGz(f)
	if err != nil {
		t.Fatal(err)
	}
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
// content of a regular file, ErrNotExist for anything else — and judges
// the archive by the same checks: a bad CRC behind the trailer, a
// truncated member, an entry of a type no tree holds.
func TestReadFileGzMatchesUnpackedTree(t *testing.T) {
	f := buildTree(t)
	z, err := PackGz(f)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := UnpackGz(z)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/etc/app/conf", "/usr/bin/app", "/usr/bin/app-latest", "/etc/app", "/etc", "/missing", "/etc/app/conf/under"} {
		want, werr := tree.ReadFile(p)
		got, gerr := ReadFileGz(z, p)
		if (gerr == nil) != (werr == nil) || got != string(want) {
			t.Errorf("ReadFileGz(%s) = %q, %v; the tree reads %q, %v", p, got, gerr, want, werr)
		}
		if gerr != nil && !errors.Is(gerr, vfs.ErrNotExist) {
			t.Errorf("ReadFileGz(%s) = %v, want ErrNotExist", p, gerr)
		}
	}

	bad := append([]byte(nil), z...)
	bad[len(bad)-8] ^= 0xff
	if _, err := ReadFileGz(bad, "/etc/app/conf"); err == nil {
		t.Error("ReadFileGz accepted a corrupt gzip checksum")
	}
	if _, err := ReadFileGz(z[:len(z)/2], "/etc/app/conf"); err == nil {
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
	if _, err := ReadFileGz(withFifo, "/f"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadFileGz of an archive with a fifo = %v, want ErrCorrupt", err)
	}
	sound, err := Gzip(append(buf.Bytes()[:fifo:fifo], make([]byte, 1024)...))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFileGz(sound, "/f"); err != nil || string(got) != "new" {
		t.Errorf("ReadFileGz(/f) = %q, %v, want the later entry", got, err)
	}
	if _, err := ReadFileGz(sound, "/g"); !errors.Is(err, vfs.ErrNotExist) {
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
// Keep answers, and builds the same tree whatever the worker count,
// entries that replace earlier ones included.
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

	for _, workers := range []int{1, 2, 4, 16} {
		var mu sync.Mutex
		held := make(map[string][]byte) // one slice per content, as the converter's table holds
		calls := 0
		keep := func(content []byte, borrowed bool) []byte {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if borrowed != (len(content) <= smallEntry) {
				t.Errorf("workers=%d: %d-byte content borrowed=%v", workers, len(content), borrowed)
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
		got, err := UnpackGzKeep(gz, keep, workers)
		if err != nil {
			t.Fatal(err)
		}
		gotPacked, err := Pack(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotPacked, wantPacked) {
			t.Errorf("workers=%d: tree differs from UnpackGz's", workers)
		}
		if calls != regular {
			t.Errorf("workers=%d: Keep called %d times for %d regular files", workers, calls, regular)
		}
		b, _ := got.ReadFile("/d/c")
		if len(b) == 0 || &b[0] != &held["shared bytes"][0] {
			t.Errorf("workers=%d: the tree does not hold the slice Keep answered", workers)
		}
	}

	// A cut-off archive fails for any worker count, with no worker left
	// holding a scratch.
	cut, err := Gzip(rawTar(t, entries...)[:3000])
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if _, err := UnpackGzKeep(cut, ownCopy, workers); !errors.Is(err, ErrCorrupt) {
			t.Errorf("workers=%d: cut-off archive: %v, want ErrCorrupt", workers, err)
		}
	}
}

// GzipFrom is Gzip of what the reader holds, however the bytes arrive,
// and every byte passes the tee.
func TestGzipFromMatchesGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{0, 1, 4 << 10, copyChunk, 300<<10 + 17} {
		data := make([]byte, size)
		rng.Read(data[:size/2])
		want, err := Gzip(data)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]io.Reader{
			"whole":     bytes.NewReader(data),
			"streamed":  struct{ io.Reader }{bytes.NewReader(data)},
			"byte-wise": iotest.OneByteReader(bytes.NewReader(data)),
		} {
			if size > copyChunk && name == "byte-wise" {
				continue
			}
			var tee bytes.Buffer
			got, n, err := GzipFrom(r, &tee)
			if err != nil || n != int64(size) || !bytes.Equal(got, want) || !bytes.Equal(tee.Bytes(), data) {
				t.Errorf("%d bytes %s: n=%d err=%v, stream equal: %v, tee equal: %v",
					size, name, n, err, bytes.Equal(got, want), bytes.Equal(tee.Bytes(), data))
			}
		}
	}
	if _, _, err := GzipFrom(iotest.ErrReader(errors.New("source broke")), io.Discard); err == nil {
		t.Error("a failing source compressed")
	}
}
