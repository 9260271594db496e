package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// checkMounted holds DecodeMounted to its contract on one input: it
// accepts blob iff DecodeBinary does, and then its tree, chunk tables and
// header are what ToTree, ChunkMap and the decoded index say, record
// buffers cannot grow into one another, and the index derived from the
// retained blob is the decoded one. Each file is its entry until read:
// StubOf answers for it with the decoded entry's fingerprint and size,
// its bytes are ToTree's record, and once relinked it is a stub no more.
func checkMounted(tb testing.TB, blob []byte) {
	tb.Helper()
	ix, ixErr := DecodeBinary(blob)
	m, mErr := DecodeMounted(string(blob))
	if (ixErr == nil) != (mErr == nil) {
		tb.Fatalf("DecodeBinary = %v, DecodeMounted = %v: one accepts what the other refuses", ixErr, mErr)
	}
	if mErr != nil {
		if !errors.Is(mErr, ErrCorrupt) {
			tb.Fatalf("DecodeMounted = %v, want ErrCorrupt", mErr)
		}
		return
	}
	if m.Name != ix.Name || m.Tag != ix.Tag || !reflect.DeepEqual(m.Config, ix.Config) {
		tb.Fatalf("DecodeMounted header = %s %+v, DecodeBinary's %s %+v", m.Reference(), m.Config, ix.Reference(), ix.Config)
	}
	tree, err := ix.ToTree()
	if err != nil {
		tb.Fatal(err)
	}
	var files []string
	_ = m.Tree.Walk(func(p string, n *vfs.Node) error {
		if n.Type() != vfs.TypeRegular {
			return nil
		}
		if _, _, _, ok := n.Unrendered(); !ok {
			tb.Fatalf("%s: a file of a mounted blob has content before anything read it", p)
		}
		e := ix.Lookup(p)
		if stub, ok := StubOf(n); !ok || stub.Fingerprint() != e.Fingerprint || stub.Size != e.Size {
			tb.Fatalf("%s: StubOf = %s %d %v, the decoded entry %s %d", p, stub.Fingerprint(), stub.Size, ok, e.Fingerprint, e.Size)
		}
		checkAppendFingerprint(tb, p, n, e.Fingerprint) // from the entry in the blob
		if got, want := n.Content().Data(), mustRead(tb, tree, p); !bytes.Equal(got, want) {
			tb.Fatalf("%s renders %q, ToTree's record is %q", p, got, want)
		}
		checkAppendFingerprint(tb, p, n, e.Fingerprint) // from the record
		files = append(files, p)
		return nil
	})
	if got, want := describeTree(m.Tree), describeTree(tree); got != want {
		tb.Fatalf("DecodeMounted built\n%s\nDecodeBinary + ToTree build\n%s", got, want)
	}
	if want := ix.ChunkMap(); len(m.Chunks) != len(want) || len(want) > 0 && !reflect.DeepEqual(m.Chunks, want) {
		tb.Fatalf("DecodeMounted chunk tables = %v, ChunkMap = %v", m.Chunks, want)
	}
	_ = m.Tree.Walk(func(p string, n *vfs.Node) error {
		if n.Type() == vfs.TypeRegular && cap(n.Content().Data()) != len(n.Content().Data()) {
			tb.Fatalf("placeholder at %s has spare capacity into the shared buffer", p)
		}
		return nil
	})
	unread, err := DecodeMounted(string(blob))
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range files {
		c := vfs.NewContent([]byte("materialized"))
		if !unread.Tree.Relink(p, c) {
			tb.Fatalf("Relink %s reported false", p)
		}
		if n := unread.Tree.Lookup(p); n.Content() != c {
			tb.Fatalf("%s does not hold what it was relinked to", p)
		} else if _, lazy := StubOf(n); lazy {
			tb.Fatalf("%s is still a stub after Relink", p)
		}
	}
	derived, err := m.Index()
	if err != nil {
		tb.Fatalf("Index of a mounted blob: %v", err)
	}
	if !bytes.Equal(canonical(tb, ix), canonical(tb, derived)) {
		tb.Fatal("the index derived from the retained blob is not the decoded one")
	}
}

// checkAppendFingerprint holds the buffer form of the stub of n, the
// placeholder at p, to Fingerprint's string, which is want; the bytes
// already in the buffer stay.
func checkAppendFingerprint(tb testing.TB, p string, n *vfs.Node, want hashing.Fingerprint) {
	tb.Helper()
	stub, _ := StubOf(n)
	if got := string(stub.AppendFingerprint([]byte("key:"))); got != "key:"+string(want) || stub.Fingerprint() != want {
		tb.Fatalf("%s: AppendFingerprint = %q, Fingerprint = %s, want %s", p, got, stub.Fingerprint(), want)
	}
}

// mustRead is f.ReadFile of p, which must succeed.
func mustRead(tb testing.TB, f *vfs.FS, p string) []byte {
	tb.Helper()
	data, err := f.ReadFile(p)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fileNode is the node of a file of a tree built whole, holding data.
func fileNode(tb testing.TB, data []byte) *vfs.Node {
	tb.Helper()
	f := vfs.New()
	if err := f.WriteFile("/f", data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return f.Lookup("/f")
}

// mountedSeeds are sound indexes of every shape the tests have, encoded,
// and blobs that are sound but for one thing Validate refuses.
func mountedSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, name := range []string{"golden_index.bin", "golden_cdc_index.bin"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	encode := func(ix *Index) {
		blob, err := EncodeBinary(ix)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	// Collision-fallback IDs, for the file and for its chunks.
	root := vfs.New()
	if err := root.WriteFile("/a", bytes.Repeat([]byte("a"), 300), 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := root.WriteFile("/b", bytes.Repeat([]byte("b"), 300), 0o600); err != nil {
		tb.Fatal(err)
	}
	collide, _, err := BuildPolicy("collide", "v1", imagefmt.Config{}, root, hashing.NewRegistry(constHasher{}), FixedChunks(128))
	if err != nil {
		tb.Fatal(err)
	}
	encode(collide)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 6; i++ {
		ix, _, err := BuildPolicy("rand", fmt.Sprint(i), imagefmt.Config{Env: []string{"A=b"}}, randomRoot(rng, 10+rng.Intn(60)), nil, FixedChunks(int64(rng.Intn(3))*64))
		if err != nil {
			tb.Fatal(err)
		}
		encode(ix)
	}
	seeds = append(seeds, dotNameBlobs(tb)...)
	seeds = append(seeds, []byte("GIX1"), nil)

	// Hand-written trees, each sound as framing goes, under the header
	// of an index n:t with an empty configuration.
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	str := func(s string) []byte { return cat([]byte{byte(len(s))}, []byte(s)) }
	fp := cat([]byte{0}, bytes.Repeat([]byte{0xab}, 16))
	blob := func(entries ...[]byte) []byte {
		return cat([]byte(binaryMagic), str("{}"), str("n"), str("t"), cat(entries...))
	}
	dir := func(name string, n byte) []byte { return cat(str(name), []byte{byte(vfs.TypeDir), 0o55, n}) }
	// file is a file's entry up to its fingerprint; its size, its chunk
	// count and its chunks follow.
	file := func(name string, fp []byte, tail ...byte) []byte {
		return cat(str(name), []byte{byte(vfs.TypeRegular), 0o44}, fp, tail)
	}
	return append(seeds,
		blob(dir("", 2), file("a", fp, 3, 0), file("b", fp, 0, 0)),
		// Chunked: 2 + 3 = 5.
		blob(dir("", 1), file("a", fp, 5, 2), fp, []byte{2}, fp, []byte{3}),
		// The root has a name; the root is a file.
		blob(dir("rootfs", 0)),
		blob(file("", fp, 0, 0)),
		// Unsorted, twice the same name, a path for a name.
		blob(dir("", 2), file("b", fp, 0, 0), file("a", fp, 0, 0)),
		blob(dir("", 2), file("a", fp, 0, 0), file("a", fp, 0, 0)),
		blob(dir("", 1), file("a/b", fp, 0, 0)),
		// A malformed ID for a fingerprint, of the file and of a chunk.
		blob(dir("", 1), file("a", cat([]byte{1}, str("xyz")), 0, 0)),
		blob(dir("", 1), file("a", fp, 1, 1), []byte{1}, str("xyz"), []byte{1}),
		// A size of 2^63; chunks that fall short of the size; an empty chunk.
		blob(dir("", 1), file("a", fp, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0)),
		blob(dir("", 1), file("a", fp, 5, 2), fp, []byte{2}, fp, []byte{2}),
		blob(dir("", 1), file("a", fp, 0, 1), fp, []byte{0}),
		// Children that are not there, and a byte after the tree.
		blob(dir("", 1), dir("d", 100)),
		cat(blob(dir("", 0)), []byte{0}),
	)
}

// constHasher gives every content the same MD5, so that a Registry hands
// out collision-fallback IDs.
type constHasher struct{}

func (constHasher) Fingerprint([]byte) hashing.Fingerprint {
	return "00000000000000000000000000000000"
}

// The tree sink against the Entry sink, on every seed and on each seed
// damaged: one byte changed, or cut short.
func TestDecodeMountedMatchesDecodeBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	accepted := 0
	for _, seed := range mountedSeeds(t) {
		checkMounted(t, seed)
		if _, err := DecodeBinary(seed); err == nil {
			accepted++
		}
		for i := 0; i < 200 && len(seed) > 0; i++ {
			damaged := append([]byte(nil), seed...)
			if rng.Intn(4) == 0 {
				damaged = damaged[:rng.Intn(len(damaged))]
			} else {
				damaged[rng.Intn(len(damaged))] = byte(rng.Intn(256))
			}
			checkMounted(t, damaged)
		}
	}
	if accepted < 10 {
		t.Errorf("only %d seeds decode: the comparison is of refusals", accepted)
	}
}

// FuzzDecodeMounted: for any input the tree sink succeeds iff
// DecodeBinary does, and builds what DecodeBinary + ToTree + ChunkMap
// build.
func FuzzDecodeMounted(f *testing.F) {
	for _, seed := range mountedSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) { checkMounted(t, blob) })
}

// MountImage installs what FromImage + Mount install, and refuses the
// images FromImage refuses.
func TestMountImageMatchesFromImage(t *testing.T) {
	for _, ix := range []*Index{goldenIndex(t), goldenCDCIndex(t)} {
		img, err := ix.ToImage()
		if err != nil {
			t.Fatal(err)
		}
		m, err := MountImage(img)
		if err != nil {
			t.Fatal(err)
		}
		viaIndex, err := ix.Mount()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := describeTree(m.Tree), describeTree(viaIndex.Tree); got != want {
			t.Errorf("%s: MountImage built\n%s\nMount builds\n%s", ix.Reference(), got, want)
		}
		if len(m.Chunks) != len(viaIndex.Chunks) || len(m.Chunks) > 0 && !reflect.DeepEqual(m.Chunks, viaIndex.Chunks) {
			t.Errorf("%s: MountImage chunk tables differ from Mount's", ix.Reference())
		}
		if got, _ := viaIndex.Index(); got != ix {
			t.Errorf("%s: Mount().Index() is not the index mounted", ix.Reference())
		}
		img.Manifest.Config.Labels = nil
		if _, err := MountImage(img); !errors.Is(err, ErrNotGearFile) {
			t.Errorf("MountImage of an unlabelled image = %v, want ErrNotGearFile", err)
		}
	}
}

// allocatedBy is how many bytes fn allocates, the least of a few runs.
func allocatedBy(fn func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// No count in the input buys memory the input does not back: decoding
// costs at most a constant per input byte, however the counts lie. The
// constant is no longer a directory's (a node and a map for five bytes of
// input made it 64): an entry is a ref, and its place among the pending
// ones, in slices that grow by appending. The blobs are the ones that
// would cost more were a count believed
// (directories nested to the depth limit, each announcing as many children
// as input is left, and a file announcing as many chunks) and the one
// with the most entries for its size.
func TestDecodeMountedBoundsMemoryByInput(t *testing.T) {
	// An entry is two uint32 per five bytes, each copied a few times over
	// as its slice grows; dearer is the walk's own scratch for a file's
	// chunks, 32 bytes per three of input.
	const perByte = 12
	header := append(append(append([]byte(binaryMagic), 2, '{', '}'), 1, 'n'), 1, 't')
	uvarint := func(v int) []byte {
		var out []byte
		for ; v >= 0x80; v >>= 7 {
			out = append(out, byte(v)|0x80)
		}
		return append(out, byte(v))
	}
	const pad = 1 << 16
	nested := append([]byte(nil), header...)
	nested = append(nested, 0, byte(vfs.TypeDir), 0o55)
	nested = append(nested, uvarint(pad)...)
	for depth := 0; depth < maxBinaryDepth-1; depth++ {
		nested = append(nested, 1, 'd', byte(vfs.TypeDir), 0o55)
		nested = append(nested, uvarint(pad)...)
	}
	nested = append(nested, make([]byte, pad)...) // what the counts are checked against

	chunky := append([]byte(nil), header...)
	chunky = append(chunky, 0, byte(vfs.TypeDir), 0o55, 1)
	chunky = append(chunky, 1, 'f', byte(vfs.TypeRegular), 0o44, 0)
	chunky = append(chunky, make([]byte, 16)...)
	chunky = append(chunky, 0)
	chunky = append(chunky, uvarint(pad)...)
	chunky = append(chunky, make([]byte, pad)...)

	// Symlinks of three letters to nowhere, five bytes each but for the
	// name; the last is out of order, once all of them have been noted.
	const links = 17000
	tiny := append([]byte(nil), header...)
	tiny = append(tiny, 0, byte(vfs.TypeDir), 0o55)
	tiny = append(tiny, uvarint(links+1)...)
	for i := 0; i < links; i++ {
		tiny = append(tiny, 3, byte('a'+i/676), byte('a'+i/26%26), byte('a'+i%26), byte(vfs.TypeSymlink), 0, 0)
	}
	tiny = append(tiny, 1, 'a', byte(vfs.TypeSymlink), 0, 0)

	for name, blob := range map[string][]byte{"nested directories": nested, "chunk count": chunky, "tiny entries": tiny} {
		s := string(blob)
		if _, err := DecodeMounted(s); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: DecodeMounted = %v, want ErrCorrupt", name, err)
		}
		got := allocatedBy(func() { _, _ = DecodeMounted(s) })
		if limit := uint64(perByte*len(blob) + 4096); got > limit {
			t.Errorf("%s: DecodeMounted allocated %d bytes for %d of input, want at most %d", name, got, len(blob), limit)
		}
	}
	// A directory's node comes with its slots, 8 bytes an entry, when the
	// cheapest sound entry is a symlink to nowhere of a one-byte name, 5
	// bytes: a directory of such entries, and of two-byte names once those
	// run out, costs the first lookup into it at most twice its input.
	const k = 8192
	var names [][]byte
	for first := 1; first < 256 && len(names) < k; first++ {
		if first == '.' || first == '/' {
			continue
		}
		names = append(names, []byte{byte(first)})
		for second := byte('0'); second <= '~' && len(names) < k; second++ {
			names = append(names, []byte{byte(first), second})
		}
	}
	flat := append([]byte(nil), header...)
	flat = append(flat, 0, byte(vfs.TypeDir), 0o55, 1, 1, 'd', byte(vfs.TypeDir), 0o55)
	flat = append(flat, uvarint(k)...)
	for _, name := range names {
		flat = append(append(append(flat, byte(len(name))), name...), byte(vfs.TypeSymlink), 0, 0)
	}
	last := "/d/" + string(names[k-1])
	if m, err := DecodeMounted(string(flat)); err != nil || m.Tree.Lookup(last) == nil {
		t.Fatalf("a directory of %d symlinks: DecodeMounted = %v, or %s is not there", k, err, last)
	}
	decode := allocatedBy(func() { _, _ = DecodeMounted(string(flat)) })
	lookup := allocatedBy(func() {
		m, _ := DecodeMounted(string(flat))
		m.Tree.Lookup(last)
	})
	if limit := decode + uint64(2*len(flat)); lookup > limit {
		t.Errorf("a lookup into a directory of %d symlinks (%d bytes of input) allocated %d bytes, want at most %d", k, len(flat), lookup-decode, limit-decode)
	}

	// And a sound index, which costs its refs and its header.
	sound, err := EncodeBinary(goldenIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	got := allocatedBy(func() { _, _ = DecodeMounted(string(sound)) })
	if limit := uint64(perByte*len(sound) + 4096); got > limit {
		t.Errorf("golden index: DecodeMounted allocated %d bytes for %d of input, want at most %d", got, len(sound), limit)
	}
}

// wideIndex is an index of dirs directories of perDir files each, encoded,
// and the paths of its files.
func wideIndex(tb testing.TB, dirs, perDir int) (blob string, files []string) {
	tb.Helper()
	root := vfs.New()
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/usr/lib/pkg%03d", d)
		if err := root.MkdirAll(dir, 0o755); err != nil {
			tb.Fatal(err)
		}
		for f := 0; f < perDir; f++ {
			p := fmt.Sprintf("%s/module%02d.so", dir, f)
			if err := root.WriteFile(p, []byte(p), 0o644); err != nil {
				tb.Fatal(err)
			}
			files = append(files, p)
		}
	}
	ix, _, err := Build("wide", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := EncodeBinary(ix)
	if err != nil {
		tb.Fatal(err)
	}
	return string(enc), files
}

// A mounted index costs its refs, and a node for each file a path comes
// to: N files installed and k of them looked up allocate 8·N + c·k bytes
// at most, and twice the files at the same k no more than their refs on
// top. A tree built whole — a node, a record and a map slot a file, 170
// bytes and more — is several times over either.
func TestMountedIndexCostsWhatIsTouched(t *testing.T) {
	const (
		k       = 50
		perFile = 8   // a ref is 4, in a slice sized by the blob
		perRead = 512 // the nodes along the path and their maps, the record, the content header
		fixed   = 4096
	)
	cost := func(dirs int) (n int, bytes uint64) {
		blob, files := wideIndex(t, dirs, 25)
		return len(files), allocatedBy(func() {
			m, err := DecodeMounted(blob)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				// Every fifth file of the first ten directories, however
				// many there are.
				if p := files[i*5]; m.Tree.Lookup(p) == nil {
					t.Fatalf("%s does not resolve", p)
				}
			}
			if names, err := m.Tree.ReadDirNames("/usr/lib"); err != nil || len(names) != dirs {
				t.Fatalf("ReadDirNames = %d names, %v, want %d", len(names), err, dirs)
			}
		})
	}
	n1, small := cost(40)
	n2, large := cost(80)
	for _, c := range []struct {
		n     int
		bytes uint64
	}{{n1, small}, {n2, large}} {
		// The listing is a string header a directory, once.
		if limit := uint64(perFile*c.n + perRead*k + fixed + 16*c.n/25); c.bytes > limit {
			t.Errorf("%d files mounted and %d looked up allocate %d bytes, want at most %d", c.n, k, c.bytes, limit)
		}
	}
	if grew, limit := int64(large)-int64(small), int64(perFile*(n2-n1)+16*(n2-n1)/25); grew > limit {
		t.Errorf("%d more files at the same %d lookups allocate %d bytes more, want at most %d: the files not read cost more than their refs", n2-n1, k, grew, limit)
	}
}

// StubOf answers from the bytes, for a record with a plain fingerprint
// or a collision ID and for a file that is none; and content that only
// begins like a record is refused in an error no longer than a record,
// whatever its size.
func TestPlaceholderChecksAreBounded(t *testing.T) {
	plain := Placeholder(hashing.FingerprintBytes([]byte("x")), 1<<40)
	id := Placeholder(hashing.FingerprintBytes([]byte("x"))+"-c12", 7)
	file := bytes.Repeat([]byte("materialized "), 1000)
	for _, tt := range []struct {
		data []byte
		want bool
	}{{plain, true}, {id, true}, {file, false}} {
		n := fileNode(t, tt.data)
		if allocs := testing.AllocsPerRun(20, func() {
			if _, ok := StubOf(n); ok != tt.want {
				t.Fatalf("StubOf(%.20q...) = %v", tt.data, ok)
			}
		}); allocs != 0 {
			t.Errorf("StubOf(%.20q...): %v allocs per run, want 0", tt.data, allocs)
		}
	}
	for _, huge := range [][]byte{
		append([]byte(PlaceholderPrefix), bytes.Repeat([]byte("x"), 1<<20)...),
		append(append([]byte(PlaceholderPrefix), bytes.Repeat([]byte("x"), 1<<20)...), ":5\n"...),
		append(bytes.TrimSuffix(plain, []byte("\n")), bytes.Repeat([]byte("0"), 1<<20)...),
	} {
		_, _, err := ParsePlaceholder(huge)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("ParsePlaceholder of %d bytes that begin like a record = %v, want ErrCorrupt", len(huge), err)
		} else if len(err.Error()) > 4*maxRecordLen {
			t.Errorf("ParsePlaceholder of %d bytes: the error is %d bytes long", len(huge), len(err.Error()))
		}
		if _, ok := StubOf(fileNode(t, huge)); ok {
			t.Errorf("StubOf accepts %d bytes", len(huge))
		}
	}
}

// Readers of one mounted tree fill it in between them: each finds every
// file, with the record ToTree writes for it, and the tree they leave is
// ToTree's.
func TestMountedTreeFillsUnderReaders(t *testing.T) {
	blob, files := wideIndex(t, 12, 25)
	m, err := DecodeMounted(blob)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := m.Index()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ix.ToTree()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(r))).Perm(len(files)) {
				p := files[i]
				if i%7 == r {
					if names, err := m.Tree.ReadDirNames(p[:len(p)-len("/module00.so")]); err != nil || len(names) != 25 {
						t.Errorf("ReadDirNames above %s = %d names, %v", p, len(names), err)
					}
				}
				got, err := m.Tree.ReadFile(p)
				if want, _ := whole.ReadFile(p); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s reads %q, %v, want %q", p, got, err, want)
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := describeTree(m.Tree), describeTree(whole); got != want {
		t.Errorf("the readers leave\n%s\nToTree builds\n%s", got, want)
	}
}
