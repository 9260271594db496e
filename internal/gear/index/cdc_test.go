package index

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

func cdcData(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestChunkPolicyValidate(t *testing.T) {
	valid := []ChunkPolicy{
		{},
		FixedChunks(4096),
		CDCChunks(4096),
		{MinSize: 1024, AvgSize: 4096, MaxSize: 16384},
		{AvgSize: 1}, // min defaults clamp to 1
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", p, err)
		}
	}
	invalid := []ChunkPolicy{
		{FixedSize: -1},
		{AvgSize: -1},
		{MinSize: 512},                                  // bounds without avg
		{MaxSize: 512},                                  // bounds without avg
		{FixedSize: 4096, AvgSize: 4096},                // both modes
		{MinSize: 8192, AvgSize: 4096},                  // min > avg
		{MinSize: 1024, AvgSize: 4096, MaxSize: 2048},   // max < avg
		{MinSize: -1, AvgSize: 4096, MaxSize: 16384},    // negative min
		{MinSize: 1024, AvgSize: 4096, MaxSize: -16384}, // negative max
	}
	for _, p := range invalid {
		if err := p.Validate(); !errors.Is(err, ErrBadChunkPolicy) {
			t.Errorf("Validate(%+v) = %v, want ErrBadChunkPolicy", p, err)
		}
	}
}

// Chunks concatenate back to the input, respect the size bounds, and
// are a pure function of the bytes.
func TestCDCSplitBoundsAndDeterminism(t *testing.T) {
	pol := CDCChunks(1024).normalized()
	for _, n := range []int{0, 1, 100, 4096, 4097, 65536, 200000} {
		data := cdcData(t, n, int64(n))
		pieces := pol.split(data)
		if int64(n) <= pol.MaxSize {
			if pieces != nil {
				t.Fatalf("size %d: split below max produced %d chunks", n, len(pieces))
			}
			continue
		}
		var total int64
		var joined []byte
		for i, p := range pieces {
			size := int64(len(p))
			if size > pol.MaxSize {
				t.Fatalf("size %d: chunk %d is %d > max %d", n, i, size, pol.MaxSize)
			}
			if size < pol.MinSize && i != len(pieces)-1 {
				t.Fatalf("size %d: chunk %d is %d < min %d", n, i, size, pol.MinSize)
			}
			total += size
			joined = append(joined, p...)
		}
		if total != int64(n) || !bytes.Equal(joined, data) {
			t.Fatalf("size %d: chunks do not reassemble the input", n)
		}
		again := pol.split(data)
		if len(again) != len(pieces) {
			t.Fatalf("size %d: split is not deterministic", n)
		}
		for i := range again {
			if !bytes.Equal(again[i], pieces[i]) {
				t.Fatalf("size %d: chunk %d differs across runs", n, i)
			}
		}
	}
}

// The point of CDC: shifting the file by an insertion re-cuts only the
// neighborhood of the edit, so most chunks keep their fingerprints —
// unlike fixed-size chunking, where everything downstream shifts.
func TestCDCSplitShiftResilience(t *testing.T) {
	pol := CDCChunks(1024)
	data := cdcData(t, 256<<10, 99)
	shifted := append([]byte("seventeen bytes!!"), data...)

	key := func(pieces [][]byte) map[string]bool {
		out := make(map[string]bool, len(pieces))
		for _, p := range pieces {
			out[string(p)] = true
		}
		return out
	}
	base := key(pol.split(data))
	shared := 0
	shiftedPieces := pol.split(shifted)
	for _, p := range shiftedPieces {
		if base[string(p)] {
			shared++
		}
	}
	if shared*2 < len(shiftedPieces) {
		t.Fatalf("only %d/%d chunks survive a 17-byte prepend", shared, len(shiftedPieces))
	}

	fixed := FixedChunks(1024)
	fixedBase := key(fixed.split(data))
	fixedShared := 0
	fixedShifted := fixed.split(shifted)
	for _, p := range fixedShifted {
		if fixedBase[string(p)] {
			fixedShared++
		}
	}
	if fixedShared >= shared {
		t.Fatalf("fixed chunking shared %d >= cdc %d after shift", fixedShared, shared)
	}
}

// A single-byte edit invalidates a bounded neighborhood, not the file.
func TestCDCSplitLocalEdit(t *testing.T) {
	pol := CDCChunks(1024)
	data := cdcData(t, 256<<10, 7)
	edited := append([]byte(nil), data...)
	edited[128<<10] ^= 0xff

	base := make(map[string]bool)
	for _, p := range pol.split(data) {
		base[string(p)] = true
	}
	changed := 0
	for _, p := range pol.split(edited) {
		if !base[string(p)] {
			changed++
		}
	}
	if changed > 3 {
		t.Fatalf("a one-byte edit re-cut %d chunks", changed)
	}
}

// BuildPolicy with CDC is bit-identical whether a file's chunks are
// summed on one goroutine or on several, exactly like the fixed-size
// path.
func TestBuildPolicyCDCParallelParity(t *testing.T) {
	root := vfs.New()
	if err := root.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	big := cdcData(t, 300<<10, 21)
	if err := root.WriteFile("/data/model.bin", big, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteFile("/data/small", []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	pol := CDCChunks(4096)
	var wantIx *Index
	var wantPool map[hashing.Fingerprint][]byte
	var err error
	onProcs(1, func() { wantIx, wantPool, err = BuildPolicy("cdc", "v1", imagefmt.Config{}, root, nil, pol) })
	if err != nil {
		t.Fatal(err)
	}
	entry := wantIx.Lookup("/data/model.bin")
	if entry == nil || len(entry.Chunks) < 2 {
		t.Fatalf("model not chunked: %+v", entry)
	}
	wantEnc, err := EncodeBinary(wantIx)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4} {
		var ix *Index
		var pool map[hashing.Fingerprint][]byte
		onProcs(procs, func() { ix, pool, err = BuildPolicy("cdc", "v1", imagefmt.Config{}, root, nil, pol) })
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeBinary(ix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, wantEnc) {
			t.Fatalf("GOMAXPROCS=%d: index differs from serial", procs)
		}
		if len(pool) != len(wantPool) {
			t.Fatalf("GOMAXPROCS=%d: pool size %d != %d", procs, len(pool), len(wantPool))
		}
		for fp, data := range wantPool {
			if !bytes.Equal(pool[fp], data) {
				t.Fatalf("GOMAXPROCS=%d: pool content differs at %s", procs, fp)
			}
		}
	}
}

func TestBuildPolicyRejectsBadPolicy(t *testing.T) {
	root := vfs.New()
	if _, _, err := BuildPolicy("bad", "v1", imagefmt.Config{}, root, nil,
		ChunkPolicy{FixedSize: 1, AvgSize: 1}); !errors.Is(err, ErrBadChunkPolicy) {
		t.Fatalf("err = %v, want ErrBadChunkPolicy", err)
	}
}

// goldenCDCIndex builds the deterministic CDC fixture pinned by
// testdata/golden_cdc_index.bin: chunk boundaries (and therefore the
// gearTable and mask arithmetic) are part of the on-disk format.
func goldenCDCIndex(t *testing.T) *Index {
	t.Helper()
	fs := vfs.New()
	if err := fs.MkdirAll("/srv", 0o755); err != nil {
		t.Fatal(err)
	}
	big := cdcData(t, 100000, 11)
	if err := fs.WriteFile("/srv/model.bin", big, 0o644); err != nil {
		t.Fatal(err)
	}
	// A shared region: the tail of model.bin under another name must
	// dedup at chunk granularity.
	if err := fs.WriteFile("/srv/model2.bin", append(cdcData(t, 3000, 12), big[20000:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/srv/app", []byte("#!/bin/app\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	ix, pool, err := BuildPolicy("golden-cdc", "v1", imagefmt.Config{Env: []string{"M=cdc"}},
		fs, nil, ChunkPolicy{MinSize: 1024, AvgSize: 4096, MaxSize: 16384})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk-level sharing must actually occur in the fixture.
	m1, m2 := ix.Lookup("/srv/model.bin"), ix.Lookup("/srv/model2.bin")
	seen := make(map[string]bool, len(m1.Chunks))
	for _, c := range m1.Chunks {
		seen[string(c.Fingerprint)] = true
	}
	shared := 0
	for _, c := range m2.Chunks {
		if seen[string(c.Fingerprint)] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("golden fixture has no cross-file shared chunks")
	}
	if len(pool) >= len(m1.Chunks)+len(m2.Chunks)+2 {
		t.Fatalf("pool %d entries shows no chunk dedup", len(pool))
	}
	return ix
}

// TestCDCGolden pins the CDC chunk table bytes: boundaries, chunk
// fingerprints, and the codec's rendering of them must never drift.
func TestCDCGolden(t *testing.T) {
	ix := goldenCDCIndex(t)
	bin, err := EncodeBinary(ix)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_cdc_index.bin", bin)
	back, err := DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	bin2, err := EncodeBinary(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, bin2) {
		t.Fatal("cdc binary round trip is not idempotent")
	}
}

func BenchmarkCDCSplit(b *testing.B) {
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(data)
	pol := ChunkPolicy{MinSize: 32 << 10, AvgSize: 128 << 10, MaxSize: 512 << 10}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	// The 4 MiB input is set-up: inside the timed region it reads as
	// 4 MiB ÷ b.N per op, which moves with the machine's speed.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pieces := pol.split(data); len(pieces) < 2 {
			b.Fatal("no split")
		}
	}
}
