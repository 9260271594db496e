package convert

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
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
		timing.Unpack += c.disk.ReadCost(layer.Size)
		tree, err := layer.Tree()
		if err != nil {
			return nil, err
		}
		tarstream.ApplyLayer(root, tree)
		timing.Unpack += c.disk.WriteCost(layer.UncompressedSize)
	}
	workers := c.opts.Workers
	var hashCPU time.Duration
	_ = root.Walk(func(_ string, n *vfs.Node) error {
		if n.Type() == vfs.TypeRegular {
			timing.Traverse += c.disk.ReadCost(n.Size())
			hashCPU += time.Duration(float64(n.Size()) / hashBPS * float64(time.Second))
		}
		return nil
	})
	timing.Traverse += hashCPU / time.Duration(workers)
	ix, pool, err := index.BuildPolicy(img.Manifest.Name, img.Manifest.Tag, img.Manifest.Config,
		root, c.reg, c.opts.Chunking)
	if err != nil {
		return nil, err
	}
	var buildCPU time.Duration
	for _, data := range pool {
		timing.Build += c.disk.WriteCost(int64(len(data)))
		buildCPU += perFileCPU
	}
	timing.Build += buildCPU / time.Duration(workers)
	indexImage, err := ix.ToImage()
	if err != nil {
		return nil, err
	}
	timing.Build += c.disk.WriteCost(indexImage.Manifest.TotalSize())
	return &Result{Index: ix, Files: pool, IndexImage: indexImage, Timing: timing}, nil
}

// heldIDs adds to ids every ID res holds: its pool's, and the whole-file
// IDs of its chunked files.
func heldIDs(res *Result, ids map[hashing.Fingerprint]bool) {
	for fp := range res.Files {
		ids[fp] = true
	}
	for fp := range res.Index.ChunkMap() {
		ids[fp] = true
	}
}

// fallbacks counts the collision fallback IDs ("<fp>-cN") among the keys
// of ids.
func fallbacks[V any](ids map[hashing.Fingerprint]V) int {
	n := 0
	for id := range ids {
		if strings.Contains(string(id), "-c") {
			n++
		}
	}
	return n
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
					ids, refIDs := make(map[hashing.Fingerprint]bool), make(map[hashing.Fingerprint]bool)
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
						heldIDs(got, ids)
						heldIDs(want, refIDs)
					}
					if pol.Enabled() && chunked == 0 {
						t.Fatal("no file was chunked: the policy went untested")
					}
					if hashName == "colliding" && fallbacks(ids) == 0 {
						t.Fatal("no collision: the fallback IDs went untested")
					}
					if fallbacks(ids) != fallbacks(refIDs) {
						t.Errorf("%d collision fallback IDs, reference %d", fallbacks(ids), fallbacks(refIDs))
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

// holdsExactly reports whether the table holds res's contents and
// nothing else, settled: each under its verifier and, the empty one
// aside, its first byte, marked as the last result's and pinned by no
// conversion. res is a conversion without chunks or
// fingerprint collisions, so its files are its contents.
func (t *table) holdsExactly(res *Result) bool {
	byData := len(t.byData)
	if t.empty != nil {
		byData++
	}
	if len(t.byVerifier) != len(res.Files) || byData != len(res.Files) || len(t.last) != len(res.Files) {
		return false
	}
	for _, data := range res.Files {
		if h := t.byVerifier[sha256.Sum256(data)]; h == nil || !h.inLast || h.pins != 0 {
			return false
		}
	}
	return true
}

// cutOff is an image whose one layer is sound gzip over a tar archive
// cut off after its first files, which hold 700 bytes each of first,
// first+1 and so on: they are kept, then the conversion fails.
func cutOff(t *testing.T, name, tag string, first byte) *imagefmt.Image {
	t.Helper()
	tree := vfs.New()
	for i := 0; i < 8; i++ {
		if err := tree.WriteFile(fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{first + byte(i)}, 700), 0o644); err != nil {
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
	layer, err := imagefmt.NewLayerFromTarball(gz, hashing.DigestBytes(gz), "")
	if err != nil {
		t.Fatal(err)
	}
	return &imagefmt.Image{
		Manifest: &imagefmt.Manifest{Name: name, Tag: tag, Layers: []hashing.Digest{layer.Digest}, LayerSizes: []int64{layer.Size}},
		Layers:   []*imagefmt.Layer{layer},
	}
}

// contentImage is a one-layer image with a file for each content, in
// the order given.
func contentImage(t *testing.T, name, tag string, contents ...string) *imagefmt.Image {
	t.Helper()
	tree := vfs.New()
	for i, content := range contents {
		if err := tree.WriteFile(fmt.Sprintf("/f%02d", i), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	img, err := imagefmt.SingleLayerImage(name, tag, tree, imagefmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// gateDeadline is how long a gate that stays shut holds a hash.
const gateDeadline = 10 * time.Second

// gateHasher holds the hash of each content it has a gate for until the
// gate opens. A gate still shut after gateDeadline is noted as late and
// let through, so a test of conversions that must overlap fails where
// one waits for the other, and does not hang.
type gateHasher struct {
	hashing.Hasher
	gates map[string]*gate
	late  atomic.Bool
}

// gate is closed until open is; reached is closed once a hash comes to it.
type gate struct {
	reached chan struct{}
	open    <-chan struct{}
	once    sync.Once
}

func newGate(open <-chan struct{}) *gate { return &gate{reached: make(chan struct{}), open: open} }

func (h *gateHasher) Fingerprint(data []byte) hashing.Fingerprint {
	if g := h.gates[string(data)]; g != nil {
		g.once.Do(func() { close(g.reached) })
		select {
		case <-g.open:
		case <-time.After(gateDeadline):
			h.late.Store(true)
		}
	}
	return h.Hasher.Fingerprint(data)
}

// gated makes c hash through gates over inner. It must come before c's
// first conversion.
func gated(c *Converter, inner hashing.Hasher, gates map[string]*gate) *gateHasher {
	h := &gateHasher{Hasher: inner, gates: gates}
	c.reg = hashing.NewRegistry(h)
	c.files = newTable(c.reg)
	return h
}

// When Convert returns, the table holds the contents of its result and
// nothing else: not what a lower layer held and an upper layer replaced
// or whited out, and nothing of a conversion that failed — also when the
// failed conversion overlapped a successful one, ending before it or
// after it.
func TestTableHoldsOnlyResultContent(t *testing.T) {
	c := newConverter(t, Options{})
	letFail, letSucceed := make(chan struct{}), make(chan struct{})
	failing, succeeding := newGate(letFail), newGate(letSucceed)
	h := gated(c, hashing.MD5{}, map[string]*gate{strings.Repeat("m", 700): failing, "held back": succeeding})
	res, err := c.Convert(overwriting(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"old bytes", "doomed bytes"} {
		if c.files.holds(gone) {
			t.Errorf("the table still holds %q, which no result references", gone)
		}
	}
	for _, kept := range []string{"new bytes", "lasting bytes"} {
		if !c.files.holds(kept) {
			t.Errorf("the table does not hold %q", kept)
		}
	}
	if !c.files.holdsExactly(res) {
		t.Errorf("table holds %d contents (%d by data), not exactly the result's %d",
			len(c.files.byVerifier), len(c.files.byData), len(res.Files))
	}

	if _, err := c.Convert(cutOff(t, "broken", "v1", 'a')); err == nil {
		t.Fatal("a truncated layer converted")
	}
	if c.files.holds(strings.Repeat("a", 700)) || !c.files.holdsExactly(res) {
		t.Errorf("a failed conversion did not leave the table as the last result's")
	}

	// A conversion that fails is held at its third file while one
	// that shares its second converts.
	var failErr error
	done := make(chan struct{})
	failed := cutOff(t, "broken", "v2", 'k')
	go func() {
		defer close(done)
		_, failErr = c.Convert(failed)
	}()
	<-failing.reached
	res, err = c.Convert(contentImage(t, "overlapping", "v2", "lasting bytes", strings.Repeat("l", 700), "fresh bytes"))
	if err != nil {
		t.Fatal(err)
	}
	close(letFail)
	<-done
	if failErr == nil {
		t.Fatal("a truncated layer converted")
	}
	if c.files.holds(strings.Repeat("k", 700)) || !c.files.holds(strings.Repeat("l", 700)) || !c.files.holdsExactly(res) {
		t.Errorf("a conversion that failed after an overlapping one succeeded left the table holding %d contents, not the result's %d",
			len(c.files.byVerifier), len(res.Files))
	}

	// A conversion that succeeds is held at its second file while
	// one that shares a content with it fails.
	var ok *Result
	done = make(chan struct{})
	succeeded := contentImage(t, "overlapping", "v3", "lasting bytes", "held back", strings.Repeat("r", 700))
	go func() {
		defer close(done)
		ok, err = c.Convert(succeeded)
	}()
	<-succeeding.reached
	if _, err := c.Convert(cutOff(t, "broken", "v3", 'q')); err == nil {
		t.Fatal("a truncated layer converted")
	}
	close(letSucceed)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if c.files.holds(strings.Repeat("q", 700)) || !c.files.holds(strings.Repeat("r", 700)) || !c.files.holdsExactly(ok) {
		t.Errorf("a conversion that failed while an overlapping one went on left the table holding %d contents, not the result's %d",
			len(c.files.byVerifier), len(ok.Files))
	}
	if h.late.Load() {
		t.Errorf("a conversion waited for one held at a gate")
	}
}

// Two conversions on one Converter run at once: a conversion held at a
// content until the other has hashed one of its own goes on, with the
// fingerprint registry and the content table shared between them. Equal
// contents of both results get one ID and distinct contents distinct
// IDs, also under a hasher that collides nearly every content; and when
// both have ended the table holds the last result's contents alone. Run
// under -race. Where one conversion waits for the other, the first is
// held until gateDeadline, and the test fails.
func TestConversionsOverlap(t *testing.T) {
	hashers := map[string]hashing.Hasher{"md5": hashing.MD5{}, "colliding": parityHasher{}}
	for hashName, hasher := range hashers {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", hashName, workers), func(t *testing.T) {
				c := newConverter(t, Options{Workers: workers})
				second := newGate(closed)
				first := newGate(second.reached)
				h := gated(c, hasher, map[string]*gate{"marker of a": first, "marker of b": second})
				images := []*imagefmt.Image{
					contentImage(t, "a", "v1", "only in a", "shared by both", "marker of a", "also shared", "a again"),
					contentImage(t, "b", "v1", "shared by both", "only in b", "marker of b", "also shared"),
				}
				results := make([]*Result, len(images))
				errs := make([]error, len(images))
				var wg sync.WaitGroup
				for i, img := range images {
					wg.Add(1)
					go func() {
						defer wg.Done()
						results[i], errs[i] = c.Convert(img)
					}()
					if i == 0 {
						<-first.reached // a is converting: now start b
					}
				}
				wg.Wait()
				if h.late.Load() {
					t.Fatalf("a's conversion waited %v for b's to start: conversions do not overlap", gateDeadline)
				}
				ids := make(map[string]hashing.Fingerprint)
				contents := make(map[hashing.Fingerprint]string)
				for i, res := range results {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					for fp, data := range res.Files {
						if id, ok := ids[string(data)]; ok && id != fp {
							t.Errorf("%q is %s in one result and %s in the other", data, id, fp)
						}
						if content, ok := contents[fp]; ok && content != string(data) {
							t.Errorf("%s is both %q and %q", fp, content, data)
						}
						ids[string(data)], contents[fp] = fp, string(data)
					}
				}
				if len(ids) != 7 || len(contents) != 7 {
					t.Errorf("%d contents under %d IDs, want 7 under 7", len(ids), len(contents))
				}
				if hashName == "colliding" && fallbacks(contents) == 0 {
					t.Error("no collision: the fallback IDs went untested")
				}
				if !c.files.holdsExactly(c.last) {
					t.Errorf("the table holds %d contents, not exactly the last result's %d", len(c.files.byVerifier), len(c.last.Files))
				}
			})
		}
	}
}

// closed is a channel that is closed.
var closed = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Two goroutines converting different images on one Converter, each
// keeping its files through the shared table: the results are what two
// converters of their own produce, and the table holds the contents of
// whichever image converted last. Run under -race.
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
		}
	}
	if !c.files.holdsExactly(c.last) {
		t.Errorf("the table holds %d contents, not exactly the last result's %d", len(c.files.byVerifier), len(c.last.Files))
	}
}

// Converting an image drops from the table what only the image before
// held: after each version of each series the table holds that image's
// contents alone. Its reference stays converted, but only the last
// image's Result is handed back.
func TestConverterKeepsTheLastImageOnly(t *testing.T) {
	images := seriesImages(t, 0.25, 3, "python", "redis")
	c := newConverter(t, Options{})
	var last *Result
	for _, img := range images {
		res, err := c.Convert(img)
		if err != nil {
			t.Fatal(err)
		}
		if !c.files.holdsExactly(res) {
			t.Fatalf("after %s the table holds %d contents, not exactly its %d",
				img.Manifest.Reference(), len(c.files.byVerifier), len(res.Files))
		}
		last = res
	}
	if again, err := c.Convert(images[0]); !errors.Is(err, ErrAlreadyConverted) || again != nil {
		t.Errorf("an earlier image converted again: %v, %v; want no Result and ErrAlreadyConverted", again, err)
	}
	if again, err := c.Convert(images[len(images)-1]); !errors.Is(err, ErrAlreadyConverted) || again != last {
		t.Errorf("the last image converted again: %v; want its Result and ErrAlreadyConverted", err)
	}
	if !c.files.holdsExactly(last) {
		t.Error("converting an image again changed the table")
	}
}

// liveHeap is the heap the second of two collections found live: the
// first moves what sync.Pool holds to its victim cache, the second
// frees it.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// What a Converter holds does not grow with the images it converted:
// after fifteen images, five versions of three series, it holds what a
// Converter that converted only the last of them holds, plus a
// reference for each image before and the fingerprint registry's entry
// for each content they held.
func TestConverterHeapIsTheLastImage(t *testing.T) {
	const perFingerprint = 256 // measured: about 110 B of map entry, fingerprint and verifier
	images := seriesImages(t, 1, 5, "alpine", "python", "redis")
	retained := func(images []*imagefmt.Image) (held int64, fingerprints int) {
		before := liveHeap()
		c := newConverter(t, Options{})
		for _, img := range images {
			if _, err := c.Convert(img); err != nil {
				t.Fatal(err)
			}
		}
		held = liveHeap() - before
		runtime.KeepAlive(c)
		return held, c.reg.Entries()
	}
	all, allFPs := retained(images)
	one, oneFPs := retained(images[len(images)-1:])
	runtime.KeepAlive(images)
	bound := one + one/10 + int64(allFPs-oneFPs)*perFingerprint
	t.Logf("fifteen images: %d B held, %d fingerprints; the last alone: %d B, %d fingerprints; bound %d", all, allFPs, one, oneFPs, bound)
	if all > bound {
		t.Errorf("a Converter holds %d B after fifteen images, want at most %d (the last image alone: %d B)", all, bound, one)
	}
}

// allocatedBy is the bytes f allocates, with no collection running
// meanwhile.
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
// it holds — not, again, the bytes of every file it shares with the
// last. An entry of a layer the last version lacked is unpacked
// (measured: about 1.4 KiB — a tar header, a node moved from the layer's
// tree into the final tree, its clone in the layer's record, an index
// entry, its share of the encoded index); one of a layer it shares is
// cloned from the table's record (measured: about 0.75 KiB — the node,
// the index entry and its share of the index). Unpacking every layer into
// memory of its own, as the converter did, costs about three times the
// bound here, and unpacking every layer into the table, as it did before
// the records, breaks it.
func TestSecondVersionAllocatesNewBytesOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not measured under the race detector")
	}
	// One P for the test: sync.Pool keeps what is put back in a slot of
	// the P that put it, so v1 running on another P than v0 finds the
	// 1 MiB unpack scratch or the compressor v0 returned out of its reach
	// and allocates a new one. That, not a collection, is the megabyte a
	// loaded host used to add to every try.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const perUnpacked = 3 << 9 // 1.5 KiB
	const perRecalled = 1 << 10
	const fixed = 64 << 10
	images := seriesImages(t, 8, 2, "python")
	inV0 := make(map[hashing.Digest]bool)
	for _, layer := range images[0].Layers {
		inV0[layer.Digest] = true
	}
	var unpacked, recalled int64
	for _, layer := range images[1].Layers {
		tree, err := layer.Tree()
		if err != nil {
			t.Fatal(err)
		}
		st := tree.Stats()
		if n := int64(st.Files + st.Dirs + st.Symlinks); inV0[layer.Digest] {
			recalled += n
		} else {
			unpacked += n
		}
	}
	if unpacked == 0 || recalled == 0 {
		t.Fatalf("v1 unpacks %d entries and recalls %d: not a version that shares some layers", unpacked, recalled)
	}
	// The best of three: a collection between converting v0 and v1 can
	// still have emptied a pool.
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
		bound = newBytes + unpacked*perUnpacked + recalled*perRecalled + fixed
		t.Logf("v1: %d file bytes, %d of them new, %d layer entries unpacked, %d recalled; allocated %d, bound %d",
			total, newBytes, unpacked, recalled, got, bound)
		if got <= bound {
			return
		}
	}
	t.Errorf("converting v1 allocated %d bytes, want at most %d (its new file bytes + %d unpacked entries x %d + %d recalled x %d + %d)",
		got, bound, unpacked, perUnpacked, recalled, perRecalled, fixed)
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

// BenchmarkConvertConcurrent converts five versions each of two series
// on one converter, a series a goroutine, as two clients pushing to one
// registry do.
func BenchmarkConvertConcurrent(b *testing.B) {
	series := [][]*imagefmt.Image{seriesImages(b, 8, 5, "python"), seriesImages(b, 8, 5, "nginx")}
	b.SetBytes(unpackedSize(series[0]) + unpackedSize(series[1]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, images := range series {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, img := range images {
					if _, err := c.Convert(img); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// unpackedSize is the bytes of every layer of images, uncompressed.
func unpackedSize(images []*imagefmt.Image) int64 {
	var size int64
	for _, img := range images {
		for _, l := range img.Layers {
			size += l.UncompressedSize
		}
	}
	return size
}

// Converting the next version of an image on the converter that
// converted the last fingerprints exactly the contents the table did not
// hold, each once: a content v0 left in the table
// reuses its sum, and a keep that meets a content another keep is
// fingerprinting waits for that sum.
func TestSecondVersionFingerprintsNewContentsOnly(t *testing.T) {
	images := seriesImages(t, 0.5, 2, "python")
	c := newConverter(t, Options{})
	counted := newCountingHasher(hashing.MD5{})
	c.reg = hashing.NewRegistry(counted)
	c.files = newTable(c.reg)
	if _, err := c.Convert(images[0]); err != nil {
		t.Fatal(err)
	}
	want := make(map[[sha256.Size]byte]bool)
	contents := 0
	for _, layer := range images[1].Layers {
		tree, err := layer.Tree()
		if err != nil {
			t.Fatal(err)
		}
		_ = tree.Walk(func(_ string, n *vfs.Node) error {
			if n.Type() == vfs.TypeRegular {
				contents++
				if v := sha256.Sum256(n.Content().Data()); c.files.byVerifier[v] == nil {
					want[v] = true
				}
			}
			return nil
		})
	}
	if len(want) == 0 || 2*len(want) > contents {
		t.Fatalf("v1 adds %d of its %d contents: not a version that shares most of itself", len(want), contents)
	}
	counted.calls = make(map[[sha256.Size]byte]int)
	if _, err := c.Convert(images[1]); err != nil {
		t.Fatal(err)
	}
	for v, n := range counted.calls {
		if !want[v] {
			t.Errorf("a content the table held was fingerprinted %d times", n)
		} else if n != 1 {
			t.Errorf("a new content was fingerprinted %d times, want once", n)
		}
	}
	if len(counted.calls) != len(want) {
		t.Errorf("%d contents fingerprinted, want the %d the table did not hold", len(counted.calls), len(want))
	}
}
