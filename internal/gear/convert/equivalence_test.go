package convert

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/disksim"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// refConvert is the conversion as it was before files were hashed at
// unpack: every layer unpacked into memory of its own, the final tree
// walked (paths and all) to price it, every file hashed by the index
// builder. The converter is held to it, bit for bit.
type refConverter struct {
	opts Options
	reg  *hashing.Registry
	disk *disksim.Disk
}

func (c *refConverter) convert(img *imagefmt.Image) (*Result, error) {
	var timing Timing
	root := vfs.New()
	for _, layer := range img.Layers {
		timing.Unpack += c.disk.Read(layer.Size)
		tree, err := layer.Tree()
		if err != nil {
			return nil, err
		}
		if err := tarstream.ApplyLayer(root, tree); err != nil {
			return nil, err
		}
		timing.Unpack += c.disk.Write(layer.UncompressedSize)
	}
	workers := c.opts.Workers
	var hashCPU time.Duration
	_ = root.Walk(func(_ string, n *vfs.Node) error {
		if n.Type() == vfs.TypeRegular {
			timing.Traverse += c.disk.Read(n.Size())
			hashCPU += time.Duration(float64(n.Size()) / hashBPS * float64(time.Second))
		}
		return nil
	})
	timing.Traverse += hashCPU / time.Duration(workers)
	ix, pool, err := index.BuildPolicy(img.Manifest.Name, img.Manifest.Tag, img.Manifest.Config,
		root, c.reg, c.opts.Chunking, workers)
	if err != nil {
		return nil, err
	}
	var buildCPU time.Duration
	for _, data := range pool {
		timing.Build += c.disk.Write(int64(len(data)))
		buildCPU += perFileCPU
	}
	timing.Build += buildCPU / time.Duration(workers)
	indexImage, err := ix.ToImage()
	if err != nil {
		return nil, err
	}
	timing.Build += c.disk.Write(indexImage.Manifest.TotalSize())
	return &Result{Index: ix, Files: pool, IndexImage: indexImage, Timing: timing}, nil
}

// countingHasher counts how often each content is fingerprinted.
type countingHasher struct {
	inner hashing.Hasher
	mu    sync.Mutex
	calls map[[sha256.Size]byte]int
}

func newCountingHasher(inner hashing.Hasher) *countingHasher {
	return &countingHasher{inner: inner, calls: make(map[[sha256.Size]byte]int)}
}

func (h *countingHasher) Fingerprint(data []byte) hashing.Fingerprint {
	h.mu.Lock()
	h.calls[sha256.Sum256(data)]++
	h.mu.Unlock()
	return h.inner.Fingerprint(data)
}

// parityHasher gives every content one of two fingerprints, so that
// nearly every file of an image is a collision.
type parityHasher struct{}

func (parityHasher) Fingerprint(data []byte) hashing.Fingerprint {
	return hashing.Fingerprint(strings.Repeat(fmt.Sprint(len(data)%2), 32))
}

// converterPair returns a Converter and the reference, each hashing
// through a counting hasher of its own.
func converterPair(t *testing.T, opts Options, hasher hashing.Hasher) (*Converter, *countingHasher, *refConverter, *countingHasher) {
	t.Helper()
	c := newConverter(t, opts)
	counted := newCountingHasher(hasher)
	c.reg = hashing.NewRegistry(counted)
	c.files = newTable(c.reg)
	refCounted := newCountingHasher(hasher)
	disk, err := disksim.New(c.opts.Disk)
	if err != nil {
		t.Fatal(err)
	}
	return c, counted, &refConverter{opts: c.opts, reg: hashing.NewRegistry(refCounted), disk: disk}, refCounted
}

// seriesImages returns the first versions of a few corpus series, in
// the order a CI job would push them: series by series, oldest first.
func seriesImages(t testing.TB, scale float64, versions int, series ...string) []*imagefmt.Image {
	t.Helper()
	co, err := corpus.New(corpus.Options{Seed: 7, Scale: scale, SeriesFilter: series, MaxVersions: versions})
	if err != nil {
		t.Fatal(err)
	}
	var images []*imagefmt.Image
	for _, name := range series {
		for v := 0; v < versions; v++ {
			img, err := co.Image(name, v)
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, img)
		}
	}
	return images
}

// The converter — files hashed as the layers are unpacked, one copy of
// each content, sums handed on to the builder — produces exactly what
// the unpack-then-hash conversion does: index bytes, fingerprint set,
// every pool entry, the modeled times; for any worker count, chunk
// policy and hasher, over versions of several series through one
// converter. And it hashes no content more often.
func TestConvertMatchesReference(t *testing.T) {
	images := seriesImages(t, 0.5, 5, "alpine", "python", "redis")
	policies := map[string]index.ChunkPolicy{
		"whole": {}, "fixed": index.FixedChunks(4 << 10), "cdc": index.CDCChunks(2 << 10),
	}
	hashers := map[string]hashing.Hasher{"md5": hashing.MD5{}, "colliding": parityHasher{}}
	for polName, pol := range policies {
		for hashName, hasher := range hashers {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", polName, hashName, workers), func(t *testing.T) {
					c, counted, ref, refCounted := converterPair(t, Options{Chunking: pol, Workers: workers}, hasher)
					chunked := 0
					for _, img := range images {
						got, err := c.Convert(img)
						if err != nil {
							t.Fatal(err)
						}
						want, err := ref.convert(img)
						if err != nil {
							t.Fatal(err)
						}
						name := img.Manifest.Reference()
						gotEnc, err := index.EncodeBinary(got.Index)
						if err != nil {
							t.Fatal(err)
						}
						wantEnc, err := index.EncodeBinary(want.Index)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gotEnc, wantEnc) {
							t.Fatalf("%s: index differs from the reference conversion's", name)
						}
						if len(got.Files) != len(want.Files) {
							t.Fatalf("%s: %d pool entries, reference has %d", name, len(got.Files), len(want.Files))
						}
						for fp, data := range want.Files {
							if held, ok := got.Files[fp]; !ok || !bytes.Equal(held, data) {
								t.Fatalf("%s: pool entry %s differs from the reference's (held: %v)", name, fp, ok)
							}
						}
						if got.Timing != want.Timing {
							t.Fatalf("%s: timing %+v, reference %+v", name, got.Timing, want.Timing)
						}
						chunked += len(got.Index.ChunkMap())
					}
					if pol.Enabled() && chunked == 0 {
						t.Fatal("no file was chunked: the policy went untested")
					}
					if hashName == "colliding" && c.reg.Collisions() == 0 {
						t.Fatal("no collision: the fallback IDs went untested")
					}
					if c.reg.Collisions() != ref.reg.Collisions() {
						t.Errorf("%d collisions, reference %d", c.reg.Collisions(), ref.reg.Collisions())
					}
					if c.DiskStats() != ref.disk.Stats() {
						t.Errorf("disk stats %+v, reference %+v", c.DiskStats(), ref.disk.Stats())
					}
					// Every content of a result is hashed by the
					// reference; the converter hashes none of them more
					// often. (It also hashes what a layer holds and an
					// upper layer hides, which the reference never sees.)
					total, refTotal := 0, 0
					for content, n := range refCounted.calls {
						refTotal += n
						total += counted.calls[content]
						if counted.calls[content] > n {
							t.Fatalf("a content is hashed %d times, %d by the reference", counted.calls[content], n)
						}
					}
					t.Logf("hash calls over %d conversions: %d, reference %d", len(images), total, refTotal)
				})
			}
		}
	}
}

// overwriting is an image whose upper layer replaces one file of the
// lower layer, deletes another, and leaves a third.
func overwriting(t *testing.T) *imagefmt.Image {
	t.Helper()
	lower, upper := vfs.New(), vfs.New()
	for p, content := range map[string]string{"/replaced": "old bytes", "/deleted": "doomed bytes", "/kept": "lasting bytes"} {
		if err := lower.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for p, content := range map[string]string{"/replaced": "new bytes", "/.wh.deleted": ""} {
		if err := upper.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b := imagefmt.NewBuilder("overwriting", "v1")
	for _, diff := range []*vfs.FS{lower, upper} {
		if err := b.AddDiffLayer(diff); err != nil {
			t.Fatal(err)
		}
	}
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// holds reports whether the table holds content.
func (t *table) holds(content string) bool {
	return t.byVerifier[sha256.Sum256([]byte(content))] != nil
}

// When Convert returns, the table holds the contents of the results and
// nothing else: not what a lower layer held and an upper layer replaced
// or whited out, and nothing of a conversion that failed.
func TestTableHoldsOnlyResultContent(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := newConverter(t, Options{Workers: workers})
		res, err := c.Convert(overwriting(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, gone := range []string{"old bytes", "doomed bytes"} {
			if c.files.holds(gone) {
				t.Errorf("workers=%d: the table still holds %q, which no result references", workers, gone)
			}
		}
		for _, kept := range []string{"new bytes", "lasting bytes"} {
			if !c.files.holds(kept) {
				t.Errorf("workers=%d: the table does not hold %q", workers, kept)
			}
		}
		if len(c.files.byVerifier) != len(res.Files) || len(c.files.byData) != len(res.Files) || len(c.files.fresh) != 0 {
			t.Errorf("workers=%d: table holds %d contents (%d by data, %d unsettled), the result %d",
				workers, len(c.files.byVerifier), len(c.files.byData), len(c.files.fresh), len(res.Files))
		}

		// A layer that is sound gzip over a tar archive cut off after its
		// first files: they are kept, then the conversion fails.
		tree := vfs.New()
		for i := 0; i < 8; i++ {
			if err := tree.WriteFile(fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{byte('a' + i)}, 700), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := tarstream.Pack(tree)
		if err != nil {
			t.Fatal(err)
		}
		gz, err := tarstream.Gzip(raw[:len(raw)/2])
		if err != nil {
			t.Fatal(err)
		}
		layer, err := imagefmt.NewLayerFromTarball(gz, hashing.DigestBytes(gz))
		if err != nil {
			t.Fatal(err)
		}
		broken := &imagefmt.Image{
			Manifest: &imagefmt.Manifest{Name: "broken", Tag: "v1", Layers: []hashing.Digest{layer.Digest}, LayerSizes: []int64{layer.Size}},
			Layers:   []*imagefmt.Layer{layer},
		}
		if _, err := c.Convert(broken); err == nil {
			t.Fatal("a truncated layer converted")
		}
		if c.files.holds(strings.Repeat("a", 700)) || len(c.files.byVerifier) != len(res.Files) || len(c.files.byData) != len(res.Files) {
			t.Errorf("workers=%d: a failed conversion left contents in the table", workers)
		}
	}
}

// Two goroutines converting different images on one Converter, each
// fanning its hashing out to workers: the results are what two
// converters of their own produce, and the shared base is held once.
// Run under -race.
func TestConcurrentConvertSharesTable(t *testing.T) {
	images := seriesImages(t, 0.25, 2, "python", "redis")
	c := newConverter(t, Options{Workers: 4})
	results := make([]*Result, len(images))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(images); i += 2 {
				var err error
				if results[i], err = c.Convert(images[i]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	unique := make(map[hashing.Fingerprint]bool)
	for i, img := range images {
		want, err := newConverter(t, Options{}).Convert(img)
		if err != nil {
			t.Fatal(err)
		}
		gotEnc, _ := index.EncodeBinary(results[i].Index)
		wantEnc, _ := index.EncodeBinary(want.Index)
		if !bytes.Equal(gotEnc, wantEnc) || len(results[i].Files) != len(want.Files) {
			t.Fatalf("%s: differs from a conversion of its own", img.Manifest.Reference())
		}
		for fp, data := range want.Files {
			if !bytes.Equal(results[i].Files[fp], data) {
				t.Fatalf("%s: pool entry %s differs", img.Manifest.Reference(), fp)
			}
			unique[fp] = true
		}
	}
	if len(c.files.byVerifier) != len(unique) {
		t.Errorf("the table holds %d contents, the results reference %d", len(c.files.byVerifier), len(unique))
	}
}

// allocatedBy is the bytes f allocates. No collection runs meanwhile: one
// that empties the scratch pools mid-call costs a megabyte that says
// nothing about the path, and on a loaded host it lands in every try.
func allocatedBy(f func()) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// Converting the next version of an image on the converter that
// converted the last allocates the bytes of the files that version
// added, and for each entry of its layers what an entry costs whatever
// it holds (measured: about 1.6 KiB — a tar header, a node in the
// layer's tree and one in the final tree, their paths on the two walks
// of ApplyLayer, an index entry, its share of the encoded index) —
// not, again, the bytes of every file it shares with the last.
// Unpacking every layer into memory of its own, as the converter did,
// costs about three times the bound here.
func TestSecondVersionAllocatesNewBytesOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not measured under the race detector")
	}
	const perEntry = 2 << 10
	const fixed = 64 << 10
	images := seriesImages(t, 8, 2, "python")
	var entries int64
	for _, layer := range images[1].Layers {
		tree, err := layer.Tree()
		if err != nil {
			t.Fatal(err)
		}
		st := tree.Stats()
		entries += int64(st.Files + st.Dirs + st.Symlinks)
	}
	// The best of three: a collection that empties the scratch pool
	// mid-conversion costs a megabyte that says nothing about the path.
	var got, bound int64
	for try := 0; try < 3; try++ {
		c := newConverter(t, Options{})
		v0, err := c.Convert(images[0])
		if err != nil {
			t.Fatal(err)
		}
		var v1 *Result
		got = allocatedBy(func() { v1, err = c.Convert(images[1]) })
		if err != nil {
			t.Fatal(err)
		}
		var newBytes, total int64
		for fp, data := range v1.Files {
			total += int64(len(data))
			if _, shared := v0.Files[fp]; !shared {
				newBytes += int64(len(data))
			}
		}
		if newBytes == 0 || newBytes > total/4 {
			t.Fatalf("v1 adds %d of its %d bytes: not a version that shares most of itself", newBytes, total)
		}
		bound = newBytes + entries*perEntry + fixed
		t.Logf("v1: %d file bytes, %d of them new, %d layer entries; allocated %d, bound %d", total, newBytes, entries, got, bound)
		if got <= bound {
			return
		}
	}
	t.Errorf("converting v1 allocated %d bytes, want at most %d (its new file bytes + %d entries x %d + %d)",
		got, bound, entries, perEntry, fixed)
}

// BenchmarkConvertSeries converts five versions of a series on one
// converter: what scripts/benchguard.sh gates is that its allocation
// stays near the bytes the versions add.
func BenchmarkConvertSeries(b *testing.B) {
	images := seriesImages(b, 8, 5, "python")
	var size int64
	for _, img := range images {
		for _, l := range img.Layers {
			size += l.UncompressedSize
		}
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, img := range images {
			if _, err := c.Convert(img); err != nil {
				b.Fatal(err)
			}
		}
	}
}
