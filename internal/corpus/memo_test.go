package corpus

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/imagefmt"
)

// referenceImage is Image without the memo: every layer rendered and
// packed afresh.
func referenceImage(t *testing.T, c *Corpus, series string, version int) *imagefmt.Image {
	t.Helper()
	s, _, err := c.lookup(series, version)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := c.packages(s, version)
	var layers []*imagefmt.Layer
	for i, p := range pkgs {
		tree, err := c.packageTree(p)
		if err != nil {
			t.Fatal(err)
		}
		if i == len(pkgs)-1 {
			if err := appExtras(tree, series, version); err != nil {
				t.Fatal(err)
			}
		}
		l, err := imagefmt.NewLayerFromDiff(tree)
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, l)
	}
	return &imagefmt.Image{Layers: layers}
}

// Images generated on two goroutines at once, sharing one memo, equal
// layer for layer the images built without it. Each shared package
// instance is built exactly once and stacked into every image that has
// it, and no app package is memoized.
func TestSharedLayersBuiltOnce(t *testing.T) {
	// python and ruby are one category: they share the OS base and the
	// runtime lineages, across versions and across the two series.
	series := []string{"python", "ruby"}
	const versions = 5
	c := newCorpus(t, Options{Seed: 42, Scale: 0.15, SeriesFilter: series, MaxVersions: versions})
	images := make([][versions * 2]*imagefmt.Image, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range images {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < versions*2; k++ {
				i := k
				if g == 1 {
					i = versions*2 - 1 - k // the other goroutine walks backwards
				}
				img, err := c.Image(series[i/versions], i%versions)
				if err != nil {
					errs[g] = err
					return
				}
				images[g][i] = img
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	byKey := make(map[string]*imagefmt.Layer)
	for i := 0; i < versions*2; i++ {
		name, version := series[i/versions], i%versions
		want := referenceImage(t, c, name, version)
		s, _, _ := c.lookup(name, version)
		pkgs := c.packages(s, version)
		for _, img := range []*imagefmt.Image{images[0][i], images[1][i]} {
			if len(img.Layers) != len(want.Layers) {
				t.Fatalf("%s:%d: %d layers, want %d", name, version, len(img.Layers), len(want.Layers))
			}
			for j, got := range img.Layers {
				w := want.Layers[j]
				if got.Digest != w.Digest || got.Size != w.Size ||
					got.UncompressedSize != w.UncompressedSize || !bytes.Equal(got.Tarball(), w.Tarball()) {
					t.Errorf("%s:%d layer %d (%s) differs from the one built without the memo", name, version, j, pkgs[j].key)
				}
				if !pkgs[j].shared {
					continue
				}
				if k := pkgs[j].memoKey(); byKey[k] == nil {
					byKey[k] = got
				} else if byKey[k] != got {
					t.Errorf("%s:%d layer %d (%s): a second build of a shared layer", name, version, j, pkgs[j].key)
				}
			}
		}
	}
	if n := int(c.memoBuilds.Load()); n != len(byKey) || len(c.memo) != len(byKey) {
		t.Errorf("%d shared layers built, %d memoized; want %d, each once", n, len(c.memo), len(byKey))
	}
	// Two lineages, each across 5 versions of 2 series: far fewer
	// instances than the 20 shared layers the images stack.
	if len(byKey) >= versions*2*2 || len(byKey) < 2 {
		t.Errorf("%d distinct shared layers over %d images: the test shares nothing", len(byKey), versions*2)
	}
	for k := range c.memo {
		if strings.Contains(k, "-applib ") || strings.Contains(k, "-appbin ") {
			t.Errorf("the memo holds an app layer: %s", k)
		}
	}
}

// BenchmarkCorpusImages generates five versions each of python and nginx
// at loadbench's scale on a fresh Corpus, so what one Corpus shares
// across versions and series is built within each iteration.
func BenchmarkCorpusImages(b *testing.B) {
	series := []string{"python", "nginx"}
	const versions = 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := New(Options{Seed: 1, Scale: 8, SeriesFilter: series, MaxVersions: versions})
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range series {
			for v := 0; v < versions; v++ {
				if _, err := c.Image(name, v); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
