package convert

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// meterUnpack makes c note the Digest of every layer it unpacks.
func meterUnpack(c *Converter) *[]hashing.Digest {
	var mu sync.Mutex
	unpacked := new([]hashing.Digest)
	c.unpack = func(l *imagefmt.Layer, keep tarstream.Keep) (*vfs.FS, error) {
		mu.Lock()
		*unpacked = append(*unpacked, l.Digest)
		mu.Unlock()
		return l.TreeKeep(keep)
	}
	return unpacked
}

// layersNotIn is the Digests of img's layers, in order, that are not
// among the Digests of before.
func layersNotIn(img *imagefmt.Image, before ...*imagefmt.Image) []hashing.Digest {
	seen := make(map[hashing.Digest]bool)
	for _, b := range before {
		for _, l := range b.Layers {
			seen[l.Digest] = true
		}
	}
	var out []hashing.Digest
	for _, l := range img.Layers {
		if !seen[l.Digest] {
			seen[l.Digest] = true
			out = append(out, l.Digest)
		}
	}
	return out
}

// Converting the next version of an image on the converter that
// converted the last unpacks exactly the layers the last one lacked:
// every layer they share is cloned from the table's record of it.
func TestSecondVersionUnpacksNewLayersOnly(t *testing.T) {
	images := seriesImages(t, 0.5, 3, "python")
	c := newConverter(t, Options{})
	unpacked := meterUnpack(c)
	for i, img := range images {
		*unpacked = nil
		if _, err := c.Convert(img); err != nil {
			t.Fatal(err)
		}
		want := layersNotIn(img)
		if i > 0 {
			want = layersNotIn(img, images[i-1])
			if len(want) == 0 || len(want) == len(img.Layers) {
				t.Fatalf("v%d shares %d of its %d layers with v%d: not a version that shares some", i, len(img.Layers)-len(want), len(img.Layers), i-1)
			}
		}
		if !slices.Equal(*unpacked, want) {
			t.Errorf("v%d unpacked %d layers, want the %d v%d lacked", i, len(*unpacked), len(want), i-1)
		}
	}
}

// A layer whose tarball is not the one its Digest names fails Validate
// before the table is asked for the Digest: the conversion fails with
// ErrBadDigest, though the table has a record of that Digest, and the
// record stays as it was.
func TestTamperedLayerNeverReachesTheMemo(t *testing.T) {
	images := seriesImages(t, 0.5, 2, "python")
	c := newConverter(t, Options{})
	unpacked := meterUnpack(c)
	if _, err := c.Convert(images[0]); err != nil {
		t.Fatal(err)
	}
	claimed := images[0].Layers[0].Digest
	record := c.files.memo[claimed]
	if record == nil {
		t.Fatal("the table has no record of a layer it unpacked")
	}
	other := layersNotIn(images[1], images[0])
	if len(other) == 0 {
		t.Fatal("v1 has no layer of its own")
	}
	b := imagefmt.NewBuilder("tampered", "v1")
	for _, l := range images[1].Layers {
		if l.Digest == other[0] {
			bad := *l
			bad.Digest = claimed // the tarball of another layer
			l = &bad
		}
		b.AddLayer(l)
	}
	tampered, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	*unpacked = nil
	if _, err := c.Convert(tampered); !errors.Is(err, imagefmt.ErrBadDigest) {
		t.Fatalf("a layer whose tarball is not its Digest's: %v, want ErrBadDigest", err)
	}
	if len(*unpacked) != 0 || c.files.memo[claimed] != record {
		t.Errorf("the tampered image reached the table: %d layers unpacked, record kept %v", len(*unpacked), c.files.memo[claimed] == record)
	}
}

// indexBytes is what a conversion publishes: the index's binary form
// and the index image's manifest. Conversions call it from goroutines of
// their own, so a failure is an Error.
func indexBytes(t *testing.T, res *Result) (ix, manifest []byte) {
	t.Helper()
	ix, err := index.EncodeBinary(res.Index)
	if err != nil {
		t.Error(err)
	}
	if manifest, err = json.Marshal(res.IndexImage.Manifest); err != nil {
		t.Error(err)
	}
	return ix, manifest
}

// The index and the index image's manifest are byte for byte the same
// whatever the table remembers of the layers: converted cold, each on a
// converter of its own; warm, series by series on one; with the series
// interleaved on one; and with the two series converting at once. Warm
// and interleaved, some layers are cloned from the table's records.
func TestIndexBytesWhateverTheMemoHolds(t *testing.T) {
	series := [][]*imagefmt.Image{seriesImages(t, 0.25, 3, "python"), seriesImages(t, 0.25, 3, "redis")}
	var all []*imagefmt.Image
	all = append(append(all, series[0]...), series[1]...)
	// Two versions of each series in turn, and then the last of each: a
	// version meets the layers of the one before it, or of another
	// series.
	interleaved := []*imagefmt.Image{series[0][0], series[0][1], series[1][0], series[1][1], series[0][2], series[1][2]}
	want := make(map[string][2][]byte)
	for _, img := range all {
		res, err := newConverter(t, Options{}).Convert(img)
		if err != nil {
			t.Fatal(err)
		}
		ix, m := indexBytes(t, res)
		want[img.Manifest.Reference()] = [2][]byte{ix, m}
	}
	check := func(how string, img *imagefmt.Image, res *Result) {
		ix, m := indexBytes(t, res)
		w := want[img.Manifest.Reference()]
		if !bytes.Equal(ix, w[0]) || !bytes.Equal(m, w[1]) {
			t.Errorf("%s: %s differs from its cold conversion", how, img.Manifest.Reference())
		}
	}
	layers := 0
	for _, img := range all {
		layers += len(img.Layers)
	}
	for how, order := range map[string][]*imagefmt.Image{"warm": all, "interleaved": interleaved} {
		c := newConverter(t, Options{})
		unpacked := meterUnpack(c)
		for _, img := range order {
			res, err := c.Convert(img)
			if err != nil {
				t.Fatal(err)
			}
			check(how, img, res)
		}
		if len(*unpacked) >= layers {
			t.Errorf("%s: %d of %d layers unpacked: the memo went untested", how, len(*unpacked), layers)
		}
	}

	c := newConverter(t, Options{})
	var wg sync.WaitGroup
	for _, images := range series {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, img := range images {
				res, err := c.Convert(img)
				if err != nil {
					t.Error(err)
					return
				}
				check("concurrent", img, res)
			}
		}()
	}
	wg.Wait()
	if !c.files.holdsExactly(c.last) {
		t.Errorf("the table holds %d contents, not exactly the last result's %d", len(c.files.byVerifier), len(c.last.Files))
	}
}

// memoHoldsTheLastLayers fails t unless, with no conversion in flight,
// every record the table keeps is of a layer of the last result, pinned
// by no conversion, and names only contents the table holds.
func memoHoldsTheLastLayers(t *testing.T, c *Converter) {
	t.Helper()
	for d, r := range c.files.memo {
		if r.pins != 0 || !r.inLast || r.stale() || !slices.Contains(c.files.lastRecs, r) {
			t.Errorf("record of %s: %d pins, in the last result %v, stale %v", d, r.pins, r.inLast, r.stale())
		}
	}
}

// Two conversions of images that share their layers run at once on one
// converter, both unpacking and recording the same Digests, or one
// cloning a layer from the record the other has just made; then the
// next version clones the shared layers from the records. Every result
// is its cold conversion's, and the table and its records end as the
// last result's. Run under -race.
func TestConcurrentConversionsShareRecords(t *testing.T) {
	images := seriesImages(t, 0.25, 2, "python")
	retag := func(img *imagefmt.Image, name string) *imagefmt.Image {
		b := imagefmt.NewBuilder(name, img.Manifest.Tag)
		for _, l := range img.Layers {
			b.AddLayer(l)
		}
		out, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	pair := []*imagefmt.Image{retag(images[0], "a"), retag(images[0], "b")}
	want := make(map[string][]byte)
	for _, img := range append(pair, images[1]) {
		res, err := newConverter(t, Options{}).Convert(img)
		if err != nil {
			t.Fatal(err)
		}
		want[img.Manifest.Reference()], _ = indexBytes(t, res)
	}
	for round := 0; round < 5; round++ {
		c := newConverter(t, Options{})
		var wg sync.WaitGroup
		for _, img := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := c.Convert(img)
				if err != nil {
					t.Error(err)
					return
				}
				if ix, _ := indexBytes(t, res); !bytes.Equal(ix, want[img.Manifest.Reference()]) {
					t.Errorf("round %d: %s differs from its cold conversion", round, img.Manifest.Reference())
				}
			}()
		}
		wg.Wait()
		memoHoldsTheLastLayers(t, c)
		unpacked := meterUnpack(c)
		res, err := c.Convert(images[1])
		if err != nil {
			t.Fatal(err)
		}
		if ix, _ := indexBytes(t, res); !bytes.Equal(ix, want[images[1].Manifest.Reference()]) {
			t.Errorf("round %d: v1 differs from its cold conversion", round)
		}
		if n := len(layersNotIn(images[1], images[0])); len(*unpacked) != n {
			t.Errorf("round %d: v1 unpacked %d layers, want the %d v0 lacked", round, len(*unpacked), n)
		}
		memoHoldsTheLastLayers(t, c)
		if !c.files.holdsExactly(res) {
			t.Errorf("round %d: the table holds %d contents, not exactly the last result's %d", round, len(c.files.byVerifier), len(res.Files))
		}
	}
}

// The table keeps records of the last image's layers only: not of a
// layer of an image before it, though it names no content the table
// could drop (one of directories and symlinks alone), and nothing of a
// conversion that failed.
func TestMemoHoldsOnlyTheLastImagesLayers(t *testing.T) {
	bare := vfs.New()
	if err := bare.MkdirAll("/etc/conf.d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := bare.Symlink("conf.d", "/etc/current"); err != nil {
		t.Fatal(err)
	}
	b := imagefmt.NewBuilder("bare", "v1")
	if err := b.AddDiffLayer(bare); err != nil {
		t.Fatal(err)
	}
	b.AddLayer(contentImage(t, "files", "v1", "a file").Layers[0])
	first, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := newConverter(t, Options{})
	for _, img := range []*imagefmt.Image{first, contentImage(t, "other", "v1", "another file")} {
		if _, err := c.Convert(img); err != nil {
			t.Fatal(err)
		}
		if len(c.files.memo) != len(img.Layers) {
			t.Errorf("after %s the table keeps %d records, want one of each of its %d layers", img.Manifest.Reference(), len(c.files.memo), len(img.Layers))
		}
		memoHoldsTheLastLayers(t, c)
	}
	if _, err := c.Convert(cutOff(t, "broken", "v1", 'a')); err == nil {
		t.Fatal("a truncated layer converted")
	}
	if len(c.files.memo) != 1 {
		t.Errorf("after a failed conversion the table keeps %d records, want the last image's one", len(c.files.memo))
	}
	memoHoldsTheLastLayers(t, c)
}
