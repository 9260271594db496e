package index

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

func fixtureRoot(t *testing.T) *vfs.FS {
	t.Helper()
	f := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.MkdirAll("/etc/nginx", 0o755))
	must(f.MkdirAll("/usr/bin", 0o755))
	must(f.WriteFile("/etc/nginx/nginx.conf", []byte("conf-data"), 0o644))
	must(f.WriteFile("/usr/bin/nginx", bytes.Repeat([]byte{0xab}, 4096), 0o755))
	// Duplicate content under a different path — must share a fingerprint.
	must(f.WriteFile("/etc/nginx/nginx.conf.bak", []byte("conf-data"), 0o644))
	must(f.Symlink("nginx", "/usr/bin/nginx-latest"))
	return f
}

func buildFixture(t *testing.T) (*Index, map[hashing.Fingerprint][]byte) {
	t.Helper()
	cfg := imagefmt.Config{Env: []string{"PATH=/usr/bin"}, Entrypoint: []string{"/usr/bin/nginx"}}
	ix, pool, err := Build("nginx", "1.17", cfg, fixtureRoot(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix, pool
}

func TestBuildDeduplicatesPool(t *testing.T) {
	ix, pool := buildFixture(t)
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 regular files but only 2 unique contents.
	if len(pool) != 2 {
		t.Errorf("pool size = %d, want 2", len(pool))
	}
	s, err := ix.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Files != 3 || s.UniqueFiles != 2 || s.Symlinks != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.DataBytes != int64(len("conf-data"))+4096 {
		t.Errorf("data bytes = %d", s.DataBytes)
	}
	if s.IndexBytes <= 0 || s.IndexBytes > 4096 {
		t.Errorf("index bytes = %d; the index must be tiny", s.IndexBytes)
	}
}

// canonical is the index's canonical form, the bytes tests compare
// indexes by.
func canonical(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	enc, err := EncodeBinary(ix)
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// The decoded index is the encoded one, field for field.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	ix, _ := buildFixture(t)
	got, err := DecodeBinary(canonical(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	if got.Reference() != "nginx:1.17" {
		t.Errorf("reference = %q", got.Reference())
	}
	if !reflect.DeepEqual(got, ix) {
		t.Errorf("decode(encode(ix)) = %+v, want %+v", got, ix)
	}
	if _, err := DecodeBinary([]byte("{broken")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("decode garbage err = %v", err)
	}
}

// rawIndex is the binary form of an index with the given root (none if
// nil) as the encoder would write it if it wrote whatever it is given —
// it validates first, and refuses these. Fingerprints go as
// collision-fallback IDs, whatever they hold, and a file's children
// follow it, where the format has no room for them.
func rawIndex(root *Entry) []byte {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	writeString(&buf, "{}")
	writeString(&buf, "a")
	writeString(&buf, "b")
	var entry func(e *Entry)
	entry = func(e *Entry) {
		writeString(&buf, e.Name)
		buf.WriteByte(byte(e.Type))
		writeUvarint(&buf, uint64(e.Mode))
		switch e.Type {
		case vfs.TypeRegular:
			buf.WriteByte(1)
			writeString(&buf, string(e.Fingerprint))
			writeUvarint(&buf, uint64(e.Size))
			writeUvarint(&buf, 0)
		case vfs.TypeSymlink:
			writeString(&buf, e.Target)
		default:
			writeUvarint(&buf, uint64(len(e.Children)))
		}
		for _, c := range e.Children {
			entry(c)
		}
	}
	if root != nil {
		entry(root)
	}
	return buf.Bytes()
}

// Every decoder refuses what Validate refuses.
func TestDecodeRejectsInvalidStructures(t *testing.T) {
	const empty = hashing.Fingerprint("d41d8cd98f00b204e9800998ecf8427e")
	dir := func(children ...*Entry) *Entry { return &Entry{Type: vfs.TypeDir, Children: children} }
	named := func(name string, e *Entry) *Entry { e.Name = name; return e }
	file := func(name string, fp hashing.Fingerprint, size int64, children ...*Entry) *Entry {
		return &Entry{Name: name, Type: vfs.TypeRegular, Fingerprint: fp, Size: size, Children: children}
	}
	if _, err := DecodeBinary(rawIndex(dir(named("d", dir()), file("f", empty, 0)))); err != nil {
		t.Fatalf("a sound index written raw is refused: %v", err)
	}
	tests := []struct {
		name string
		root *Entry
	}{
		{"nil root", nil},
		{"root not dir", file("", empty, 0)},
		{"bad fingerprint", dir(file("f", "xyz", 0))},
		{"unsorted children", dir(named("b", dir()), named("a", dir()))},
		{"dup children", dir(named("a", dir()), named("a", dir()))},
		{"slash in name", dir(named("a/b", dir()))},
		{"file with children", dir(file("f", empty, 0, named("x", dir())))},
		{"negative size", dir(file("f", empty, -1))},
		{"bad type", dir(&Entry{Name: "f", Type: 9})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			blob := rawIndex(tt.root)
			if _, err := DecodeBinary(blob); err == nil {
				t.Error("DecodeBinary accepted an invalid index")
			}
			if _, err := DecodeMounted(string(blob)); err == nil {
				t.Error("DecodeMounted accepted an invalid index")
			}
		})
	}
}

func TestPlaceholderRoundTrip(t *testing.T) {
	fp := hashing.FingerprintBytes([]byte("data"))
	rec := Placeholder(fp, 12345)
	gotFP, gotSize, err := ParsePlaceholder(rec)
	if err != nil || gotFP != fp || gotSize != 12345 {
		t.Errorf("ParsePlaceholder = %s, %d, %v", gotFP, gotSize, err)
	}
	if _, ok := StubOf(fileNode(t, rec)); !ok {
		t.Error("StubOf(valid) = false")
	}
	bad := [][]byte{
		[]byte("regular file content"),
		[]byte("gearfp:short:1\n"),
		[]byte("gearfp:" + string(fp) + "\n"),     // missing size
		[]byte("gearfp:" + string(fp) + ":-5\n"),  // negative size
		[]byte("gearfp:" + string(fp) + ":abc\n"), // junk size
		{},
	}
	for _, b := range bad {
		if _, ok := StubOf(fileNode(t, b)); ok {
			t.Errorf("StubOf(%q) = true", b)
		}
	}
	if _, _, err := ParsePlaceholder([]byte("not a placeholder")); !errors.Is(err, ErrNotGearFile) {
		t.Errorf("err = %v, want ErrNotGearFile", err)
	}
}

func TestToTreeAndFromTree(t *testing.T) {
	ix, _ := buildFixture(t)
	tree, err := ix.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	// Placeholders stand in for regular files.
	data, err := tree.ReadFile("/etc/nginx/nginx.conf")
	if err != nil {
		t.Fatal(err)
	}
	fp, size, err := ParsePlaceholder(data)
	if err != nil || size != int64(len("conf-data")) {
		t.Errorf("placeholder = %s, %d, %v", fp, size, err)
	}
	if fp != hashing.FingerprintBytes([]byte("conf-data")) {
		t.Error("placeholder fingerprint mismatch")
	}
	// Symlinks and dirs carry over.
	n, err := tree.Stat("/usr/bin/nginx-latest")
	if err != nil || n.Type() != vfs.TypeSymlink || n.Target() != "nginx" {
		t.Errorf("symlink = %v, %v", n, err)
	}
	// Round trip back to an index.
	got, err := FromTree("nginx", "1.17", ix.Config, tree)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, ix), canonical(t, got)) {
		t.Error("FromTree(ToTree(ix)) != ix")
	}
}

func TestFromTreeRejectsNonPlaceholder(t *testing.T) {
	f := vfs.New()
	if err := f.WriteFile("/real-file", []byte("actual content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromTree("a", "b", imagefmt.Config{}, f); !errors.Is(err, ErrNotGearFile) {
		t.Errorf("err = %v, want ErrNotGearFile", err)
	}
}

func TestFiles(t *testing.T) {
	ix, pool := buildFixture(t)
	refs := ix.Files()
	if len(refs) != 2 {
		t.Fatalf("files = %d, want 2 unique", len(refs))
	}
	for i := 1; i < len(refs); i++ {
		if refs[i-1].Fingerprint >= refs[i].Fingerprint {
			t.Error("files not sorted")
		}
	}
	for _, ref := range refs {
		data, ok := pool[ref.Fingerprint]
		if !ok {
			t.Errorf("pool missing %s", ref.Fingerprint)
			continue
		}
		if int64(len(data)) != ref.Size {
			t.Errorf("size mismatch for %s: %d vs %d", ref.Fingerprint, len(data), ref.Size)
		}
	}
}

func TestLookup(t *testing.T) {
	ix, _ := buildFixture(t)
	tests := []struct {
		p    string
		want vfs.FileType
	}{
		{"/", vfs.TypeDir},
		{"/etc", vfs.TypeDir},
		{"/etc/nginx/nginx.conf", vfs.TypeRegular},
		{"/usr/bin/nginx-latest", vfs.TypeSymlink},
	}
	for _, tt := range tests {
		e := ix.Lookup(tt.p)
		if e == nil || e.Type != tt.want {
			t.Errorf("Lookup(%s) = %+v, want type %v", tt.p, e, tt.want)
		}
	}
	for _, p := range []string{"/missing", "/etc/nginx/nginx.conf/below", "/etc/ghost/x"} {
		if e := ix.Lookup(p); e != nil {
			t.Errorf("Lookup(%s) = %+v, want nil", p, e)
		}
	}
}

func TestToImageFromImage(t *testing.T) {
	ix, _ := buildFixture(t)
	img, err := ix.ToImage()
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Layers) != 1 {
		t.Fatalf("gear index image has %d layers, want 1", len(img.Layers))
	}
	if img.Manifest.Config.Labels[IndexLabel] == "" {
		t.Error("index label missing")
	}
	// The config must carry over so applications execute properly (§III-C).
	if len(img.Manifest.Config.Env) != 1 || img.Manifest.Config.Env[0] != "PATH=/usr/bin" {
		t.Error("environment not copied into index image")
	}
	got, err := FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, ix), canonical(t, got)) {
		t.Error("FromImage(ToImage(ix)) != ix")
	}
}

func TestFromImageRejectsRegularImage(t *testing.T) {
	f := vfs.New()
	if err := f.WriteFile("/app", []byte("x"), 0o755); err != nil {
		t.Fatal(err)
	}
	img, err := imagefmt.SingleLayerImage("plain", "v1", f, imagefmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromImage(img); !errors.Is(err, ErrNotGearFile) {
		t.Errorf("err = %v, want ErrNotGearFile", err)
	}
}

func TestIndexIsTinyRelativeToImage(t *testing.T) {
	// The paper: indexes average ~0.53 MB, ~1.1% of image bytes. Build a
	// tree with many moderately sized files and check the ratio is small.
	f := vfs.New()
	rng := rand.New(rand.NewSource(42))
	if err := f.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 200; i++ {
		data := make([]byte, 8192+rng.Intn(8192))
		rng.Read(data)
		total += int64(len(data))
		if err := f.WriteFile(fmt.Sprintf("/data/f%03d", i), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ix, _, err := Build("big", "v1", imagefmt.Config{}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(s.IndexBytes) / float64(total)
	if ratio > 0.05 {
		t.Errorf("index is %.1f%% of data bytes; want < 5%%", ratio*100)
	}
}

func TestCollisionSafety(t *testing.T) {
	// Under a colliding hasher, two different contents must still resolve
	// to different Gear files through the index (§III-B fallback).
	reg := hashing.NewRegistry(collidingHasher{})
	f := vfs.New()
	if err := f.WriteFile("/a", []byte("content-A"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/b", []byte("content-B"), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, pool, err := Build("col", "v1", imagefmt.Config{}, f, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	ea, eb := ix.Lookup("/a"), ix.Lookup("/b")
	if ea.Fingerprint == eb.Fingerprint {
		t.Fatal("colliding contents share a fingerprint")
	}
	if string(pool[ea.Fingerprint]) != "content-A" || string(pool[eb.Fingerprint]) != "content-B" {
		t.Error("pool contents scrambled by collision")
	}
	if n := fallbacks(ea.Fingerprint, eb.Fingerprint); n != 1 {
		t.Errorf("%d collision fallback IDs, want 1", n)
	}
}

// fallbacks counts the collision fallback IDs ("<fp>-cN") among ids.
func fallbacks(ids ...hashing.Fingerprint) int {
	n := 0
	for _, id := range ids {
		if strings.Contains(string(id), "-c") {
			n++
		}
	}
	return n
}

type collidingHasher struct{}

func (collidingHasher) Fingerprint([]byte) hashing.Fingerprint {
	return hashing.Fingerprint(strings.Repeat("f", 32))
}

// randomRoot builds a random image-like tree.
func randomRoot(rng *rand.Rand, n int) *vfs.FS {
	f := vfs.New()
	dirs := []string{"/"}
	for i := 0; i < n; i++ {
		d := dirs[rng.Intn(len(dirs))]
		name := fmt.Sprintf("n%02d", i)
		p := path.Join(d, name)
		switch rng.Intn(4) {
		case 0:
			if f.Mkdir(p, 0o755) == nil {
				dirs = append(dirs, p)
			}
		case 1:
			_ = f.Symlink("/bin/sh", p)
		default:
			data := make([]byte, rng.Intn(256))
			rng.Read(data)
			_ = f.WriteFile(p, data, 0o644)
		}
	}
	return f
}

// Property: Build -> ToTree -> FromTree -> Encode is a fixed point, and
// materializing every placeholder from the pool reconstructs the original
// tree byte-for-byte.
func TestBuildMaterializeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomRoot(rng, 50)
		ix, pool, err := Build("p", "v", imagefmt.Config{}, root, nil)
		if err != nil {
			return false
		}
		if ix.Validate() != nil {
			return false
		}
		tree, err := ix.ToTree()
		if err != nil {
			return false
		}
		// Materialize: replace placeholders with pool contents.
		reconstructed := vfs.New()
		err = tree.Walk(func(p string, n *vfs.Node) error {
			switch n.Type() {
			case vfs.TypeDir:
				return reconstructed.MkdirAll(p, n.Mode())
			case vfs.TypeSymlink:
				return reconstructed.Symlink(n.Target(), p)
			case vfs.TypeRegular:
				fp, _, err := ParsePlaceholder(n.Content().Data())
				if err != nil {
					return err
				}
				data, ok := pool[fp]
				if !ok {
					return errors.New("pool miss")
				}
				return reconstructed.WriteFile(p, data, n.Mode())
			}
			return nil
		})
		if err != nil {
			return false
		}
		return treeSnapshot(root) == treeSnapshot(reconstructed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func treeSnapshot(f *vfs.FS) string {
	var sb strings.Builder
	_ = f.Walk(func(p string, n *vfs.Node) error {
		var body string
		if n.Type() == vfs.TypeRegular {
			body = string(n.Content().Data())
		}
		fmt.Fprintf(&sb, "%s|%v|%o|%s|%q\n", p, n.Type(), n.Mode(), n.Target(), body)
		return nil
	})
	return sb.String()
}

// Property: the set of fingerprints in Files() equals the pool keys.
func TestFilesMatchesPoolProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomRoot(rng, 40)
		ix, pool, err := Build("p", "v", imagefmt.Config{}, root, nil)
		if err != nil {
			return false
		}
		refs := ix.Files()
		if len(refs) != len(pool) {
			return false
		}
		for _, ref := range refs {
			data, ok := pool[ref.Fingerprint]
			if !ok || int64(len(data)) != ref.Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	ix, _ := buildFixture(t)
	bin, err := EncodeBinary(ix)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, got), bin) {
		t.Error("binary round trip is not a fixed point")
	}
	// The binary form is substantially smaller than the same index as JSON.
	js, err := json.Marshal(ix)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(js) {
		t.Errorf("binary %d B not smaller than JSON %d B", len(bin), len(js))
	}
}

func TestBinaryCodecChunksAndCollisionIDs(t *testing.T) {
	big := make([]byte, 10000)
	rand.New(rand.NewSource(4)).Read(big)
	root := vfs.New()
	if err := root.WriteFile("/model", big, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, _, err := BuildPolicy("ai", "v1", imagefmt.Config{Env: []string{"A=1"}}, root, nil, FixedChunks(4096))
	if err != nil {
		t.Fatal(err)
	}
	// Force a collision-fallback fingerprint into the tree.
	ix.Root.Children[0].Fingerprint += "-c1"
	bin, err := EncodeBinary(ix)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	e := got.Lookup("/model")
	if e == nil || len(e.Chunks) != 3 || !strings.HasSuffix(string(e.Fingerprint), "-c1") {
		t.Errorf("entry = %+v", e)
	}
	if len(got.Config.Env) != 1 {
		t.Error("config lost")
	}
}

func TestBinaryCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("GIX"),
		[]byte("JUNKJUNKJUNK"),
		append([]byte("GIX1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	}
	for _, c := range cases {
		if _, err := DecodeBinary(c); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
	// Trailing bytes rejected.
	ix, _ := buildFixture(t)
	bin, err := EncodeBinary(ix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(append(bin, 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// onProcs runs f with GOMAXPROCS set to procs, so that the chunks of a
// file the policy splits are summed on up to procs goroutines.
func onProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// A BuildPolicy that sums each file's chunks on several goroutines must
// be bit-identical to one that sums them on one — same tree, same
// fingerprints (including collision IDs), same pool — under both the
// real hasher and a colliding one, and whether the builder hashes every
// file itself or is told the sums of some (BuildKnown).
func TestBuildPolicyParallelMatchesSerial(t *testing.T) {
	cfg := imagefmt.Config{Env: []string{"A=1"}}
	for _, tc := range []struct {
		name   string
		hasher hashing.Hasher
	}{
		{"md5", nil},
		{"colliding", collidingHasher{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			root := randomRoot(rng, 80)
			// Small chunk size so several files chunk.
			const chunkSize = 64
			var wantIx *Index
			var wantPool map[hashing.Fingerprint][]byte
			var err error
			onProcs(1, func() {
				wantIx, wantPool, err = BuildPolicy("app", "v1", cfg, root, hashing.NewRegistry(tc.hasher), FixedChunks(chunkSize))
			})
			if err != nil {
				t.Fatal(err)
			}
			wantEnc := canonical(t, wantIx)
			for _, procs := range []int{1, 4, -1, -4} {
				reg := hashing.NewRegistry(tc.hasher)
				// A negative count is that many procs and a builder
				// that is told the sum of every file of even length.
				var known Known
				asked := 0
				if procs < 0 {
					procs = -procs
					known = func(data []byte) (hashing.Sum, bool) {
						asked++
						return reg.Sum(data), len(data)%2 == 0
					}
				}
				var ix *Index
				var pool map[hashing.Fingerprint][]byte
				onProcs(procs, func() {
					ix, pool, err = BuildKnown("app", "v1", cfg, root, reg, FixedChunks(chunkSize), known)
				})
				if err != nil {
					t.Fatal(err)
				}
				if st, err := ix.Stats(); err != nil || (known != nil && asked != st.Files) {
					t.Fatalf("GOMAXPROCS=%d: known asked %d times for %d files (%v)", procs, asked, st.Files, err)
				}
				if !bytes.Equal(canonical(t, ix), wantEnc) {
					t.Fatalf("GOMAXPROCS=%d: index differs from serial build", procs)
				}
				if len(pool) != len(wantPool) {
					t.Fatalf("GOMAXPROCS=%d: pool size %d, want %d", procs, len(pool), len(wantPool))
				}
				for fp, data := range wantPool {
					if !bytes.Equal(pool[fp], data) {
						t.Fatalf("GOMAXPROCS=%d: pool content differs at %s", procs, fp)
					}
				}
			}
		})
	}
}

// dotNameBlobs are binary indexes that are sound except for one entry
// named "." or "..": a sound index with placeholder names of the same
// lengths is encoded and the names patched in the bytes, because the
// encoder refuses to write them.
func dotNameBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	root := vfs.New()
	for _, err := range []error{
		root.MkdirAll("/@/sub", 0o755),
		root.WriteFile("/@/sub/f", []byte("x"), 0o644),
		root.WriteFile("/@@", []byte("y"), 0o644),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	ix, _, err := Build("dots", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sound, err := EncodeBinary(ix)
	if err != nil {
		tb.Fatal(err)
	}
	patch := func(old, new string) []byte {
		if bytes.Count(sound, []byte(old)) != 1 {
			tb.Fatalf("placeholder name %q occurs %d times in the encoding", old, bytes.Count(sound, []byte(old)))
		}
		return bytes.Replace(sound, []byte(old), []byte(new), 1)
	}
	// The length prefix keeps "\x01@" and "\x02@@" apart.
	return [][]byte{patch("\x01@", "\x01."), patch("\x02@@", "\x02..")}
}

// "." and ".." are one segment each to look at, and the directory itself
// or its parent once mounted. Nothing downstream may be what turns them
// away: Validate does, with the typed error, in every decoder.
func TestValidateRejectsDotNames(t *testing.T) {
	for _, name := range []string{".", ".."} {
		ix := &Index{Name: "a", Tag: "b", Root: &Entry{Type: vfs.TypeDir, Children: []*Entry{
			{Name: name, Type: vfs.TypeDir},
		}}}
		err := ix.Validate()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("Validate with an entry named %q = %v, want ErrCorrupt", name, err)
		} else if want := fmt.Sprintf("index: bad name %q in /: corrupt gear index", name); err.Error() != want {
			t.Errorf("Validate error = %q, want %q", err, want)
		}
		if _, err := ix.ToTree(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ToTree with an entry named %q = %v, want ErrCorrupt", name, err)
		}
	}
	for _, blob := range dotNameBlobs(t) {
		if _, err := DecodeBinary(blob); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad name") {
			t.Errorf("DecodeBinary of a dot-named entry = %v, want ErrCorrupt for a bad name", err)
		}
	}
	// A named root would be a directory of its own to one reader of the
	// index and the root to another.
	named := &Index{Name: "a", Tag: "b", Root: &Entry{Name: "rootfs", Type: vfs.TypeDir}}
	if err := named.Validate(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Validate with a named root = %v, want ErrCorrupt", err)
	}
}

// The path in a validation error is put together only when there is one
// to report, and reads as it always did.
func TestValidateErrorsNameThePath(t *testing.T) {
	bad := hashing.Fingerprint("xyz")
	good := hashing.FingerprintBytes(nil)
	deep := func(leaf ...*Entry) *Index {
		return &Index{Name: "a", Tag: "b", Root: &Entry{Type: vfs.TypeDir, Children: []*Entry{
			{Name: "usr", Type: vfs.TypeDir, Children: []*Entry{
				{Name: "lib", Type: vfs.TypeDir, Children: leaf},
			}},
		}}}
	}
	for _, tt := range []struct {
		ix   *Index
		want string
	}{
		{deep(&Entry{Name: "a/b", Type: vfs.TypeDir}), `index: bad name "a/b" in /usr/lib/: corrupt gear index`},
		{deep(&Entry{Name: "b", Type: vfs.TypeDir}, &Entry{Name: "a", Type: vfs.TypeDir}), `index: unsorted children in /usr/lib/: corrupt gear index`},
		{deep(&Entry{Name: "f", Type: vfs.TypeRegular, Fingerprint: bad}), `index: /usr/lib/f: fingerprint "xyz": malformed content address`},
		{deep(&Entry{Name: "f", Type: vfs.TypeRegular, Fingerprint: good, Size: -1}), `index: /usr/lib/f: negative size: corrupt gear index`},
		{deep(&Entry{Name: "l", Type: vfs.TypeSymlink, Children: []*Entry{{Name: "x"}}}), `index: symlink /usr/lib/l has children: corrupt gear index`},
		{deep(&Entry{Name: "t", Type: 9}), `index: /usr/lib/t: bad type FileType(9): corrupt gear index`},
		{&Index{Name: "a", Tag: "b", Root: &Entry{Type: vfs.TypeDir, Children: []*Entry{{Name: "f", Type: vfs.TypeRegular, Fingerprint: bad}}}},
			`index: /f: fingerprint "xyz": malformed content address`},
	} {
		if err := tt.ix.Validate(); err == nil || err.Error() != tt.want {
			t.Errorf("Validate = %v, want %s", err, tt.want)
		}
	}
}

// pathBuiltTree is ToTree as it was: every entry installed by its full
// path through the path-taking vfs calls.
func pathBuiltTree(t *testing.T, ix *Index) *vfs.FS {
	t.Helper()
	f := vfs.New()
	var install func(e *Entry, at string)
	install = func(e *Entry, at string) {
		p := path.Join(at, e.Name)
		var err error
		switch e.Type {
		case vfs.TypeDir:
			if p != "/" {
				err = f.Mkdir(p, e.Mode)
			}
			for _, c := range e.Children {
				install(c, p)
			}
		case vfs.TypeRegular:
			err = f.WriteFile(p, Placeholder(e.Fingerprint, e.Size), e.Mode)
		case vfs.TypeSymlink:
			err = f.Symlink(e.Target, p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	install(ix.Root, "/")
	return f
}

// describeTree is everything a mount can tell about a tree.
func describeTree(f *vfs.FS) string {
	var sb strings.Builder
	_ = f.Walk(func(p string, n *vfs.Node) error {
		fmt.Fprintf(&sb, "%s name=%q %v %v target=%q", p, n.Name(), n.Type(), n.Mode(), n.Target())
		if n.Type() == vfs.TypeRegular {
			fmt.Fprintf(&sb, " %q nlink=%d", n.Content().Data(), n.Content().Nlink())
		}
		sb.WriteByte('\n')
		return nil
	})
	return sb.String()
}

// The tree built node by node from the entries is the tree the paths
// build: same walk, modes, targets, placeholder bytes and link counts,
// for the fixtures (chunked files, collision IDs, odd modes among them)
// and for random images; and it reads back as the index it came from.
func TestToTreeMatchesPathBuiltTree(t *testing.T) {
	fixture, _ := buildFixture(t)
	indexes := []*Index{fixture, goldenIndex(t), goldenCDCIndex(t)}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 20; i++ {
		ix, _, err := BuildPolicy("rand", fmt.Sprint(i), imagefmt.Config{}, randomRoot(rng, 10+rng.Intn(80)), nil, FixedChunks(int64(rng.Intn(3))*64))
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, ix)
	}
	for _, ix := range indexes {
		tree, err := ix.ToTree()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := describeTree(tree), describeTree(pathBuiltTree(t, ix)); got != want {
			t.Errorf("%s: ToTree built\n%s\nthe paths build\n%s", ix.Reference(), got, want)
		}
		back, err := FromTree(ix.Name, ix.Tag, ix.Config, tree)
		if err != nil {
			t.Fatal(err)
		}
		// Chunk tables are not part of the tree; the rest round-trips.
		if !bytes.Equal(canonical(t, withoutChunks(ix)), canonical(t, back)) {
			t.Errorf("%s: FromTree(ToTree(ix)) != ix", ix.Reference())
		}
		// One record's bytes cannot be grown into the next one's.
		_ = tree.Walk(func(p string, n *vfs.Node) error {
			if n.Type() == vfs.TypeRegular && cap(n.Content().Data()) != len(n.Content().Data()) {
				t.Errorf("%s: placeholder at %s has spare capacity into the shared buffer", ix.Reference(), p)
			}
			return nil
		})
	}
}

func withoutChunks(ix *Index) *Index {
	var strip func(e *Entry) *Entry
	strip = func(e *Entry) *Entry {
		c := *e
		c.Chunks = nil
		c.Children = nil
		for _, ch := range e.Children {
			c.Children = append(c.Children, strip(ch))
		}
		return &c
	}
	out := *ix
	out.Root = strip(ix.Root)
	return &out
}

// FromImage reads the index out of the one layer a Gear index image has.
func TestFromImageLayerChecks(t *testing.T) {
	ix, _ := buildFixture(t)
	img, err := ix.ToImage()
	if err != nil {
		t.Fatal(err)
	}
	two := &imagefmt.Image{Manifest: img.Manifest, Layers: []*imagefmt.Layer{img.Layers[0], img.Layers[0]}}
	if _, err := FromImage(two); !errors.Is(err, ErrCorrupt) {
		t.Errorf("two-layer index image: %v, want ErrCorrupt", err)
	}
	none := &imagefmt.Image{Manifest: img.Manifest}
	if _, err := FromImage(none); !errors.Is(err, ErrCorrupt) {
		t.Errorf("index image without layers: %v, want ErrCorrupt", err)
	}
	// Labelled, one layer, but no index file in it.
	empty := vfs.New()
	if err := empty.WriteFile("/.gear", []byte("a file, not the directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	hollow, err := imagefmt.SingleLayerImage("hollow", "v1", empty, img.Manifest.Config)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromImage(hollow); !errors.Is(err, ErrCorrupt) || !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("index image without the index file: %v, want ErrCorrupt and ErrNotExist", err)
	}
}

// ---- allocation budgets ----

// countEntries returns how many entries e and its subtree hold.
func countEntries(e *Entry) int {
	n := 1
	for _, c := range e.Children {
		n += countEntries(c)
	}
	return n
}

// Validating a sound index allocates nothing; installing one costs a
// constant per entry, whatever the depth of the tree: decoding a handful
// of slabs (well under one allocation per ten entries), and the tree one
// node per entry, one content per file and one map per directory — at
// most maxTreeAllocsPerEntry — plus the one buffer of records. Decoding
// a blob straight into the tree costs the tree alone.
func TestIndexInstallAllocs(t *testing.T) {
	const maxTreeAllocsPerEntry = 3
	deep := vfs.New()
	dir := ""
	for d := 0; d < 24; d++ {
		dir += fmt.Sprintf("/level%02d", d)
		if err := deep.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 10; f++ {
			if err := deep.WriteFile(fmt.Sprintf("%s/file%02d", dir, f), []byte{byte(d), byte(f)}, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	deepIx, _, err := Build("deep", "v1", imagefmt.Config{}, deep, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixture, _ := buildFixture(t)
	for _, ix := range []*Index{fixture, deepIx} {
		entries := float64(countEntries(ix.Root))
		if n := testing.AllocsPerRun(20, func() {
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Validate: %v allocs per run, want 0", ix.Reference(), n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := ix.ToTree(); err != nil {
				t.Fatal(err)
			}
		}); n > maxTreeAllocsPerEntry*entries+8 {
			t.Errorf("%s: ToTree: %v allocs for %v entries, want at most %d per entry", ix.Reference(), n, entries, maxTreeAllocsPerEntry)
		}
		enc, err := EncodeBinary(ix)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := DecodeBinary(enc); err != nil {
				t.Fatal(err)
			}
		}); n > entries/10+24 {
			t.Errorf("%s: DecodeBinary: %v allocs for %v entries, want at most one per ten entries and 24", ix.Reference(), n, entries)
		}
		// The install a deploy does — blob to mounted tree — is the tree's
		// allocations and a constant: no Entry, no hex fingerprint, and the
		// records in a buffer or two.
		blob := string(enc)
		if n := testing.AllocsPerRun(20, func() {
			if _, err := DecodeMounted(blob); err != nil {
				t.Fatal(err)
			}
		}); n > maxTreeAllocsPerEntry*entries+16 {
			t.Errorf("%s: DecodeMounted: %v allocs for %v entries, want at most %d per entry and 16", ix.Reference(), n, entries, maxTreeAllocsPerEntry)
		}
	}
}

// Content that is not a placeholder is told so from its first bytes,
// whatever its size: nothing is copied to find out.
func TestParsePlaceholderDoesNotCopy(t *testing.T) {
	big := bytes.Repeat([]byte("materialized file content "), 40<<10) // 1 MiB
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := ParsePlaceholder(big); err != ErrNotGearFile {
			t.Fatalf("ParsePlaceholder = %v, want ErrNotGearFile", err)
		}
	}); n != 0 {
		t.Errorf("ParsePlaceholder of a 1 MiB file: %v allocs per run, want 0", n)
	}
	record := Placeholder(hashing.FingerprintBytes([]byte("x")), 1)
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := ParsePlaceholder(record); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("ParsePlaceholder of a record: %v allocs per run, want 1 (the fingerprint)", n)
	}
}

// The decoded index does not depend on the buffer it was decoded from.
func TestDecodeBinaryDoesNotRetainInput(t *testing.T) {
	ix, _ := buildFixture(t)
	enc, err := EncodeBinary(ix)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xff
	}
	if !bytes.Equal(canonical(t, ix), canonical(t, got)) {
		t.Error("decoded index changed when its input buffer was overwritten")
	}
}
