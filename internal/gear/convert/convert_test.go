package convert

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/disksim"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/vfs"
)

// buildImage assembles a two-layer Docker image with a whiteout in the
// top layer, exercising full layer semantics during conversion.
func buildImage(t *testing.T, name, tag string) *imagefmt.Image {
	t.Helper()
	base := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(base.MkdirAll("/etc", 0o755))
	must(base.MkdirAll("/bin", 0o755))
	must(base.WriteFile("/bin/sh", []byte("#!base shell"), 0o755))
	must(base.WriteFile("/etc/removed-later", []byte("temp"), 0o644))
	must(base.WriteFile("/etc/conf", []byte("config v1"), 0o644))

	top := vfs.New()
	must(top.MkdirAll("/etc", 0o755))
	must(top.WriteFile("/etc/.wh.removed-later", nil, 0))
	must(top.WriteFile("/etc/app", bytes.Repeat([]byte{0x5a}, 2048), 0o755))
	must(top.Symlink("/etc/app", "/etc/app-link"))

	b := imagefmt.NewBuilder(name, tag)
	b.SetConfig(imagefmt.Config{Env: []string{"LANG=C"}, Cmd: []string{"/etc/app"}})
	must(b.AddDiffLayer(base))
	must(b.AddDiffLayer(top))
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func newConverter(t *testing.T, opts Options) *Converter {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConvertBasics(t *testing.T) {
	c := newConverter(t, Options{})
	img := buildImage(t, "app", "v1")
	res, err := c.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Index.Validate(); err != nil {
		t.Fatal(err)
	}
	// Whiteouts must be resolved: removed-later is gone from the index.
	if res.Index.Lookup("/etc/removed-later") != nil {
		t.Error("whiteouted file survived conversion")
	}
	for _, p := range []string{"/bin/sh", "/etc/conf", "/etc/app"} {
		e := res.Index.Lookup(p)
		if e == nil || e.Type != vfs.TypeRegular {
			t.Errorf("index missing %s", p)
			continue
		}
		data, ok := res.Files[e.Fingerprint]
		if !ok {
			t.Errorf("pool missing %s", p)
			continue
		}
		if hashing.FingerprintBytes(data) != e.Fingerprint {
			t.Errorf("pool content mismatch for %s", p)
		}
	}
	// Symlink carried over.
	if e := res.Index.Lookup("/etc/app-link"); e == nil || e.Target != "/etc/app" {
		t.Error("symlink lost")
	}
	// Config copied (§III-C).
	if len(res.Index.Config.Env) != 1 || res.Index.Config.Env[0] != "LANG=C" {
		t.Error("config not copied")
	}
	// Index image is single-layer and labeled.
	if len(res.IndexImage.Layers) != 1 {
		t.Error("index image not single-layer")
	}
	if res.IndexImage.Manifest.Config.Labels[index.IndexLabel] == "" {
		t.Error("index image unlabeled")
	}
	// Timing is populated and ordered sensibly.
	if res.Timing.Unpack <= 0 || res.Timing.Traverse <= 0 || res.Timing.Build <= 0 {
		t.Errorf("timing = %+v", res.Timing)
	}
	if res.Timing.Total() != res.Timing.Unpack+res.Timing.Traverse+res.Timing.Build {
		t.Error("Total() mismatch")
	}
}

func TestConvertOnlyOnce(t *testing.T) {
	c := newConverter(t, Options{})
	img := buildImage(t, "app", "v1")
	if _, err := c.Convert(img); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Convert(img); !errors.Is(err, ErrAlreadyConverted) {
		t.Errorf("err = %v, want ErrAlreadyConverted", err)
	}
	// A different tag converts fine.
	if _, err := c.Convert(buildImage(t, "app", "v2")); err != nil {
		t.Error(err)
	}
}

func TestConvertRejectsInvalidImage(t *testing.T) {
	c := newConverter(t, Options{})
	img := buildImage(t, "app", "v1")
	img.Layers = img.Layers[:1] // manifest now disagrees
	if _, err := c.Convert(img); err == nil {
		t.Error("invalid image accepted")
	}
}

func TestConversionTimeProportionalToSize(t *testing.T) {
	// Fig 6: larger images (more files) take proportionally longer.
	mkImage := func(files int) *imagefmt.Image {
		f := vfs.New()
		rng := rand.New(rand.NewSource(int64(files)))
		for i := 0; i < files; i++ {
			data := make([]byte, 1024)
			rng.Read(data)
			if err := f.WriteFile(fmt.Sprintf("/f%04d", i), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		img, err := imagefmt.SingleLayerImage(fmt.Sprintf("sz%d", files), "v", f, imagefmt.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	c := newConverter(t, Options{})
	small, err := c.Convert(mkImage(50))
	if err != nil {
		t.Fatal(err)
	}
	large, err := c.Convert(mkImage(500))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(large.Timing.Total()) / float64(small.Timing.Total())
	if ratio < 5 || ratio > 20 {
		t.Errorf("10x files -> %.1fx time; want roughly proportional", ratio)
	}
}

func TestSSDFasterThanHDD(t *testing.T) {
	// The paper: node's conversion drops 65.7% on SSD.
	img := buildImage(t, "app", "v1")
	hdd := newConverter(t, Options{Disk: disksim.HDD()})
	ssd := newConverter(t, Options{Disk: disksim.SSD()})
	rh, err := hdd.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ssd.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Timing.Total() >= rh.Timing.Total() {
		t.Errorf("ssd %v not faster than hdd %v", rs.Timing.Total(), rh.Timing.Total())
	}
	reduction := 1 - float64(rs.Timing.Total())/float64(rh.Timing.Total())
	if reduction < 0.5 {
		t.Errorf("ssd reduction = %.2f, want > 0.5", reduction)
	}
}

func TestSharedFilesAcrossConversions(t *testing.T) {
	// Identical content in two images receives the same fingerprint, the
	// basis of cross-image dedup in the Gear registry.
	c := newConverter(t, Options{})
	r1, err := c.Convert(buildImage(t, "app", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Convert(buildImage(t, "other", "v9"))
	if err != nil {
		t.Fatal(err)
	}
	e1 := r1.Index.Lookup("/bin/sh")
	e2 := r2.Index.Lookup("/bin/sh")
	if e1 == nil || e2 == nil || e1.Fingerprint != e2.Fingerprint {
		t.Error("identical files got different fingerprints across images")
	}
}

func TestChunkedConversion(t *testing.T) {
	f := vfs.New()
	big := make([]byte, 16384)
	rand.New(rand.NewSource(7)).Read(big) // distinct chunks, no accidental dedup
	if err := f.WriteFile("/model.bin", big, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/small", []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := imagefmt.SingleLayerImage("ai", "v1", f, imagefmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := newConverter(t, Options{Chunking: index.FixedChunks(4096)})
	res, err := c.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Index.Validate(); err != nil {
		t.Fatal(err)
	}
	e := res.Index.Lookup("/model.bin")
	if e == nil || len(e.Chunks) != 4 {
		t.Fatalf("chunks = %v", e)
	}
	// Chunks reassemble to the original content.
	var assembled []byte
	for _, ch := range e.Chunks {
		piece, ok := res.Files[ch.Fingerprint]
		if !ok {
			t.Fatalf("pool missing chunk %s", ch.Fingerprint)
		}
		assembled = append(assembled, piece...)
	}
	if !bytes.Equal(assembled, big) {
		t.Error("chunks do not reassemble")
	}
	// Small file not chunked.
	if e := res.Index.Lookup("/small"); e == nil || len(e.Chunks) != 0 {
		t.Error("small file chunked")
	}
	// ChunkMap exposes the mapping.
	cm := res.Index.ChunkMap()
	if len(cm) != 1 || len(cm[res.Index.Lookup("/model.bin").Fingerprint]) != 4 {
		t.Errorf("chunk map = %v", cm)
	}
	// Files() returns chunk fingerprints for chunked entries.
	refs := res.Index.Files()
	want := 5 // 4 chunks + small
	if len(refs) != want {
		t.Errorf("files = %d, want %d", len(refs), want)
	}
}

func TestPublish(t *testing.T) {
	c := newConverter(t, Options{})
	docker := registry.New()
	gear := gearregistry.New(gearregistry.Options{})

	r1, err := c.Convert(buildImage(t, "app", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	ib1, fb1, err := Publish(r1, docker, gear)
	if err != nil {
		t.Fatal(err)
	}
	if ib1 <= 0 || fb1 <= 0 {
		t.Errorf("first publish uploaded %d index / %d file bytes", ib1, fb1)
	}
	// Second image shares most files: uploads must shrink.
	r2, err := c.Convert(buildImage(t, "app", "v2"))
	if err != nil {
		t.Fatal(err)
	}
	_, fb2, err := Publish(r2, docker, gear)
	if err != nil {
		t.Fatal(err)
	}
	if fb2 != 0 {
		t.Errorf("identical content re-uploaded %d bytes, want 0", fb2)
	}
	// The index is pullable back from the Docker registry.
	img, err := registry.Pull(docker, "app", "v1")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Reference() != "app:v1" {
		t.Errorf("pulled index ref = %s", ix.Reference())
	}
	// Every file the index references is downloadable from the gear store.
	for _, ref := range ix.Files() {
		data, _, err := gear.Download(ref.Fingerprint)
		if err != nil {
			t.Errorf("download %s: %v", ref.Fingerprint, err)
			continue
		}
		if int64(len(data)) != ref.Size {
			t.Errorf("size mismatch for %s", ref.Fingerprint)
		}
	}
}

// The Gear form is named inside Convert, once: the index, the index
// image's manifest and the modeled build cost all carry the prefixed name
// — the image that is priced is the image that is published — and a second
// Convert hands back that same Result, untouched.
func TestIndexPrefix(t *testing.T) {
	c := newConverter(t, Options{IndexPrefix: "gear/"})
	res, err := c.Convert(buildImage(t, "app", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Index.Name != "gear/app" || res.Index.Tag != "v1" {
		t.Errorf("index ref = %s", res.Index.Reference())
	}
	if got := res.IndexImage.Manifest.Reference(); got != "gear/app:v1" {
		t.Errorf("index image ref = %s, want gear/app:v1", got)
	}
	if ix, err := index.FromImage(res.IndexImage); err != nil || ix.Reference() != "gear/app:v1" {
		t.Errorf("index inside the index image = %v (%v), want gear/app:v1", ix, err)
	}
	// Build differs from an unprefixed conversion's by exactly the write
	// of the one index image against the other.
	plain, err := newConverter(t, Options{}).Convert(buildImage(t, "app", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Timing.Build - c.disk.WriteCost(plain.IndexImage.Manifest.TotalSize()) +
		c.disk.WriteCost(res.IndexImage.Manifest.TotalSize())
	if res.Timing.Build != want {
		t.Errorf("Timing.Build = %v, want %v (the prefixed index image's write)", res.Timing.Build, want)
	}

	wantImage, wantTiming := res.IndexImage, res.Timing
	again, err := c.Convert(buildImage(t, "app", "v1"))
	if !errors.Is(err, ErrAlreadyConverted) {
		t.Fatalf("err = %v, want ErrAlreadyConverted", err)
	}
	if again != res || again.Index.Name != "gear/app" || again.IndexImage != wantImage || again.Timing != wantTiming {
		t.Error("second Convert did not return the cached Result unmodified")
	}
}

// TestConcurrentConversions: the Converter is safe for concurrent use.
// Distinct images converting in parallel must all succeed, sharing the
// fingerprint registry. Of two Converts of one reference in flight at
// once, exactly one converts: the other waits for it to end and then
// fails with ErrAlreadyConverted, handed the Result if it is the image
// converted last.
func TestConcurrentConversions(t *testing.T) {
	c := newConverter(t, Options{})
	letDupOn := make(chan struct{})
	dupGate := newGate(letDupOn)
	counted := newCountingHasher(hashing.MD5{})
	gated(c, counted, map[string]*gate{"dup marker": dupGate})
	const images = 8
	results := make([]*Result, images)
	errs := make([]error, images)
	var wg sync.WaitGroup
	for i := 0; i < images; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img := buildImage(t, fmt.Sprintf("app%d", i), "v1")
			results[i], errs[i] = c.Convert(img)
		}(i)
	}
	// Two conversions of the same reference: the first is held at its
	// marker while the second starts.
	dup := contentImage(t, "dup", "v1", "dup marker", "#!base shell")
	dupResults := make([]*Result, 2)
	dupErrs := make([]error, 2)
	secondDone := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dupResults[i], dupErrs[i] = c.Convert(dup)
			if i == 1 {
				close(secondDone)
			}
		}(i)
		if i == 0 {
			<-dupGate.reached
		}
	}
	select {
	case <-secondDone:
		t.Error("a Convert of a reference converting now returned before that conversion ended")
	case <-time.After(50 * time.Millisecond):
	}
	close(letDupOn)
	wg.Wait()

	for i := 0; i < images; i++ {
		if errs[i] != nil {
			t.Fatalf("image %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i].Index == nil {
			t.Fatalf("image %d: no result", i)
		}
	}
	if dupErrs[0] != nil || dupResults[0] == nil {
		t.Fatalf("the first conversion of the duplicate: %v", dupErrs[0])
	}
	if !errors.Is(dupErrs[1], ErrAlreadyConverted) {
		t.Errorf("the second conversion of the duplicate: %v, want ErrAlreadyConverted", dupErrs[1])
	}
	if again := dupResults[1]; again != nil && again != dupResults[0] {
		t.Error("the second conversion of the duplicate returned a Result of its own")
	}
	if n := counted.calls[sha256.Sum256([]byte("dup marker"))]; n != 1 {
		t.Errorf("the duplicate's marker was hashed %d times: want exactly one conversion", n)
	}
}

// A parallel conversion must produce the same Gear image as the serial
// baseline — same index bytes, same pool — while the modeled time is
// monotone non-increasing in the worker count.
func TestParallelConversionMatchesSerial(t *testing.T) {
	img := buildImage(t, "app", "v1")
	serial := newConverter(t, Options{Chunking: index.FixedChunks(512)})
	want, err := serial.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, err := index.EncodeBinary(want.Index)
	if err != nil {
		t.Fatal(err)
	}
	prev := want.Timing.Total()
	for _, workers := range []int{1, 2, 4, 8, 16} {
		c := newConverter(t, Options{Chunking: index.FixedChunks(512), Workers: workers})
		res, err := c.Convert(buildImage(t, "app", "v1"))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := index.EncodeBinary(res.Index)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, wantEnc) {
			t.Fatalf("workers=%d: index differs from serial conversion", workers)
		}
		if len(res.Files) != len(want.Files) {
			t.Fatalf("workers=%d: pool size %d, want %d", workers, len(res.Files), len(want.Files))
		}
		for fp, data := range want.Files {
			if !bytes.Equal(res.Files[fp], data) {
				t.Fatalf("workers=%d: pool content differs at %s", workers, fp)
			}
		}
		if workers == 1 && res.Timing != want.Timing {
			t.Fatalf("workers=1 timing %+v differs from serial baseline %+v", res.Timing, want.Timing)
		}
		if got := res.Timing.Total(); got > prev {
			t.Fatalf("workers=%d: time %v regressed from %v", workers, got, prev)
		} else {
			prev = got
		}
	}
}

// A second Convert of the same reference returns the cached Result
// alongside ErrAlreadyConverted, so callers can re-push without paying
// for a reconversion.
func TestConvertReturnsCachedResult(t *testing.T) {
	c := newConverter(t, Options{})
	img := buildImage(t, "app", "v1")
	first, err := c.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Convert(img)
	if !errors.Is(err, ErrAlreadyConverted) {
		t.Fatalf("err = %v, want ErrAlreadyConverted", err)
	}
	if again != first {
		t.Error("second Convert did not return the cached Result")
	}
}
