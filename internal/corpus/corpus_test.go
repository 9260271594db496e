package corpus

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/vfs"
)

// testOpts is a small-but-representative scale for unit tests.
func testOpts() Options { return Options{Seed: 42, Scale: 0.15} }

func newCorpus(t *testing.T, opts Options) *Corpus {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorpusShapeMatchesTableI(t *testing.T) {
	c := newCorpus(t, testOpts())
	if got := len(c.Series()); got != 50 {
		t.Errorf("series = %d, want 50", got)
	}
	images := 0
	byCat := make(map[Category][]string)
	for _, s := range c.Series() {
		images += s.NumVersions
		byCat[s.Category] = append(byCat[s.Category], s.Name)
	}
	if images != 971 {
		t.Errorf("total images = %d, want 971", images)
	}
	wantCounts := map[Category]int{
		Distro: 6, Language: 6, Database: 11, WebComponent: 11, Platform: 8, Others: 8,
	}
	for cat, want := range wantCounts {
		if got := len(byCat[cat]); got != want {
			t.Errorf("%s series = %d, want %d", cat, got, want)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Scale: 0}); !errors.Is(err, ErrBadScale) {
		t.Errorf("err = %v, want ErrBadScale", err)
	}
	if _, err := New(Options{Scale: 1, SeriesFilter: []string{"no-such"}}); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v, want ErrNoSeries", err)
	}
	c, err := New(Options{Scale: 1, SeriesFilter: []string{"tomcat"}, MaxVersions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Series(); len(s) != 1 || s[0].NumVersions != 5 {
		t.Errorf("filtered corpus: %d series / %+v", len(s), s)
	}
}

func TestLookupErrors(t *testing.T) {
	c := newCorpus(t, testOpts())
	if _, err := c.Image("ghost-series", 0); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v, want ErrNoSeries", err)
	}
	if _, err := c.Image("nginx", 99); !errors.Is(err, ErrNoVersion) {
		t.Errorf("err = %v, want ErrNoVersion", err)
	}
	if _, err := c.Image("nginx", -1); !errors.Is(err, ErrNoVersion) {
		t.Errorf("err = %v, want ErrNoVersion", err)
	}
	if _, err := c.NecessarySet("no-such", 0); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v, want ErrNoSeries", err)
	}
	if _, err := c.TaskCompute("no-such"); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v, want ErrNoSeries", err)
	}
}

func TestImageDeterminism(t *testing.T) {
	a := newCorpus(t, testOpts())
	b := newCorpus(t, testOpts())
	imgA, err := a.Image("redis", 3)
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := b.Image("redis", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgA.Layers) != len(imgB.Layers) {
		t.Fatal("layer counts differ")
	}
	for i := range imgA.Layers {
		if imgA.Layers[i].Digest != imgB.Layers[i].Digest {
			t.Errorf("layer %d digest differs across identical corpora", i)
		}
	}
	// Different seed changes content.
	c2 := newCorpus(t, Options{Seed: 43, Scale: 0.15})
	imgC, err := c2.Image("redis", 3)
	if err != nil {
		t.Fatal(err)
	}
	if imgA.Layers[0].Digest == imgC.Layers[0].Digest {
		t.Error("different seeds produced identical layers")
	}
}

func TestImageStructure(t *testing.T) {
	c := newCorpus(t, testOpts())
	img, err := c.Image("nginx", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
	// Non-distro: base + runtime + applib + appbin = 4 layers.
	if len(img.Layers) != 4 {
		t.Errorf("nginx layers = %d, want 4", len(img.Layers))
	}
	distro, err := c.Image("debian", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(distro.Layers) != 3 {
		t.Errorf("debian layers = %d, want 3 (no runtime)", len(distro.Layers))
	}
	root, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if !root.Exists("/opt/nginx/bin/start") {
		t.Error("entrypoint missing")
	}
	data, err := root.ReadFile("/opt/nginx/VERSION")
	if err != nil || string(data) != "v01" {
		t.Errorf("VERSION = %q, %v", data, err)
	}
	if img.Manifest.Config.Entrypoint[0] != "/opt/nginx/bin/start" {
		t.Error("config entrypoint wrong")
	}
}

func TestBaseLayerSharedAcrossAdjacentVersions(t *testing.T) {
	// Within a base generation window, the bottom layer digest is
	// identical, enabling Docker's layer-level dedup.
	c := newCorpus(t, testOpts())
	shared := 0
	for v := 0; v < 9; v++ {
		a, err := c.Image("postgres", v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Image("postgres", v+1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Layers[0].Digest == b.Layers[0].Digest {
			shared++
		}
		// App layer always changes.
		if a.Layers[len(a.Layers)-1].Digest == b.Layers[len(b.Layers)-1].Digest {
			t.Errorf("app layer identical between v%d and v%d", v, v+1)
		}
	}
	if shared < 5 {
		t.Errorf("base layer shared between only %d/9 adjacent pairs (baseEvery=5)", shared)
	}
}

func TestCrossSeriesBaseSharing(t *testing.T) {
	// Non-distro series share the osbase lineage: two series at versions
	// mapping to the same base generation share base-file contents.
	c := newCorpus(t, testOpts())
	fpSet := func(series string, version int) map[hashing.Fingerprint]bool {
		img, err := c.Image(series, version)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := img.Layers[0].Tree()
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[hashing.Fingerprint]bool)
		_ = tree.Walk(func(_ string, n *vfs.Node) error {
			if n.Type() == vfs.TypeRegular {
				set[hashing.FingerprintBytes(n.Content().Data())] = true
			}
			return nil
		})
		return set
	}
	best := 0.0
	redisSet := fpSet("redis", 5)
	for v := 0; v < 10; v++ {
		nginxSet := fpSet("nginx", v)
		common := 0
		for fp := range redisSet {
			if nginxSet[fp] {
				common++
			}
		}
		if r := float64(common) / float64(len(redisSet)); r > best {
			best = r
		}
	}
	if best < 0.5 {
		t.Errorf("max cross-series base overlap = %.2f, want >= 0.5", best)
	}
}

func TestNecessarySetProperties(t *testing.T) {
	c := newCorpus(t, Options{Seed: 42, Scale: 1.0,
		SeriesFilter: []string{"redis", "nginx", "debian", "wordpress"}})
	for _, series := range []string{"redis", "nginx", "debian", "wordpress"} {
		img, err := c.Image(series, 2)
		if err != nil {
			t.Fatal(err)
		}
		root, err := img.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		items, err := c.NecessarySet(series, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 {
			t.Fatalf("%s: empty necessary set", series)
		}
		var necessaryBytes, totalBytes int64
		for _, it := range items {
			n, err := root.Stat(it.Path)
			if err != nil {
				t.Errorf("%s: necessary file %s not in image: %v", series, it.Path, err)
				continue
			}
			if n.Size() != it.Size {
				t.Errorf("%s: %s size %d != %d", series, it.Path, n.Size(), it.Size)
			}
			necessaryBytes += it.Size
		}
		totalBytes = root.Stats().Bytes
		ratio := float64(necessaryBytes) / float64(totalBytes)
		// The paper's on-demand formats fetch 6.4%-33.3% of an image.
		if ratio < 0.03 || ratio > 0.45 {
			t.Errorf("%s: necessary ratio = %.3f, want within (0.03, 0.45)", series, ratio)
		}
	}
}

func TestNecessarySetRedundancyAcrossVersions(t *testing.T) {
	// Fig 2: consecutive versions share a substantial fraction of their
	// necessary bytes; Database higher than Distro.
	c := newCorpus(t, Options{Seed: 42, Scale: 0.3})
	redundancy := func(series string) float64 {
		var sharedB, totalB int64
		for v := 0; v < 10; v++ {
			prev := necessaryContents(t, c, series, v)
			cur, curList := prev, [][]byte(nil)
			_ = cur
			curList = necessaryContentsList(t, c, series, v+1)
			for _, data := range curList {
				totalB += int64(len(data))
				if prev[hashing.FingerprintBytes(data)] {
					sharedB += int64(len(data))
				}
			}
		}
		return float64(sharedB) / float64(totalB)
	}
	db := redundancy("mysql")
	distro := redundancy("ubuntu")
	if db < 0.35 || db > 0.8 {
		t.Errorf("database redundancy = %.2f, want ~0.56", db)
	}
	if distro > db {
		t.Errorf("distro redundancy %.2f >= database %.2f; paper has DB higher", distro, db)
	}
}

// necessaryContents returns the fingerprint set of a version's necessary
// file contents.
func necessaryContents(t *testing.T, c *Corpus, series string, version int) map[hashing.Fingerprint]bool {
	t.Helper()
	out := make(map[hashing.Fingerprint]bool)
	for _, data := range necessaryContentsList(t, c, series, version) {
		out[hashing.FingerprintBytes(data)] = true
	}
	return out
}

func necessaryContentsList(t *testing.T, c *Corpus, series string, version int) [][]byte {
	t.Helper()
	img, err := c.Image(series, version)
	if err != nil {
		t.Fatal(err)
	}
	root, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	items, err := c.NecessarySet(series, version)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, it := range items {
		data, err := root.ReadFile(it.Path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func TestFileContentsCompressible(t *testing.T) {
	c := newCorpus(t, testOpts())
	img, err := c.Image("redis", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Compressed layer size must be meaningfully below uncompressed: the
	// paper reports ~3.5x总 savings from compression+layer dedup.
	var raw, stored int64
	for _, l := range img.Layers {
		raw += l.UncompressedSize
		stored += l.Size
	}
	ratio := float64(raw) / float64(stored)
	if ratio < 1.3 || ratio > 6 {
		t.Errorf("compression ratio = %.2f, want between 1.3 and 6", ratio)
	}
}

func TestNodeIsLargestHelloWorldSmallest(t *testing.T) {
	c := newCorpus(t, Options{Seed: 42, Scale: 1.0,
		SeriesFilter: []string{"node", "hello-world", "nginx"}})
	size := func(series string) int64 {
		img, err := c.Image(series, 0)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, l := range img.Layers {
			total += l.UncompressedSize
		}
		return total
	}
	node, hello, nginx := size("node"), size("hello-world"), size("nginx")
	if node <= nginx {
		t.Errorf("node (%d) not larger than nginx (%d)", node, nginx)
	}
	if hello >= nginx/4 {
		t.Errorf("hello-world (%d) not tiny vs nginx (%d)", hello, nginx)
	}
}

func TestTaskCompute(t *testing.T) {
	c := newCorpus(t, testOpts())
	distro, err := c.TaskCompute("alpine")
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.TaskCompute("mysql")
	if err != nil {
		t.Fatal(err)
	}
	if distro >= db {
		t.Errorf("distro task %v not shorter than database task %v", distro, db)
	}
}

func TestTagsAndVersioning(t *testing.T) {
	c := newCorpus(t, testOpts())
	var tomcat *Series
	for _, s := range c.Series() {
		if s.Name == "tomcat" {
			tomcat = &s
			break
		}
	}
	if tomcat == nil {
		t.Fatal("tomcat missing")
	}
	tags := tomcat.Tags()
	if len(tags) != 20 || tags[0] != "v01" || tags[19] != "v20" {
		t.Errorf("tags = %v", tags)
	}
}

func TestImageBytesIdenticalAcrossBuilds(t *testing.T) {
	// Building the same image twice from one corpus yields identical
	// tarballs (required for registry digest stability).
	c := newCorpus(t, testOpts())
	a, err := c.Image("httpd", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Image("httpd", 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Layers {
		if !bytes.Equal(a.Layers[i].Tarball(), b.Layers[i].Tarball()) {
			t.Errorf("layer %d bytes differ across rebuilds", i)
		}
	}
}

func TestCategoryTextRoundTrip(t *testing.T) {
	for _, cat := range Categories() {
		text, err := cat.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Category
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != cat {
			t.Errorf("round trip: %v -> %s -> %v", cat, text, back)
		}
	}
	var c Category
	if err := c.UnmarshalText([]byte("Nonsense")); err == nil {
		t.Error("unknown category accepted")
	}
}
