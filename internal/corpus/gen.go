package corpus

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// hash64 hashes a label list with FNV-1a, mixed with the corpus seed.
func (c *Corpus) hash64(parts ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", c.opts.Seed)
	for _, p := range parts {
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(p))
	}
	return h.Sum64()
}

// frac maps a hash to [0,1).
func frac(h uint64) float64 { return float64(h%1_000_000) / 1_000_000 }

// pkg describes one package instance (a package name at a content
// generation) plus the churn parameters governing its file contents.
type pkg struct {
	// key identifies the package lineage ("osbase", "nginx-app", ...).
	key string
	// gen is the content generation used for cold/hot churn clocks.
	gen int
	// dirs are the directories the package's files land in.
	dirs []string
	// files is the number of files.
	files int
	// hotFrac, hotChurn, coldChurn control which files a launch touches
	// and how fast they change across generations.
	hotFrac, hotChurn, coldChurn float64
	// sizeMul scales this package's file sizes.
	sizeMul float64
	// shared marks a lineage whose instances repeat across versions or
	// series — the OS bases and the category runtimes — so Image builds
	// each instance's layer once per Corpus (see sharedLayer).
	shared bool
}

// memoKey spells out every field of the descriptor: packageTree is a
// pure function of them, so equal keys render equal trees.
func (p *pkg) memoKey() string { return fmt.Sprintf("%+v", *p) }

// seriesSizeMul gives each series a stable size personality around the
// category mean. node is deliberately the largest (the paper's Fig 6
// calls out node's 105 s conversion); hello-world is deliberately tiny.
func (c *Corpus) seriesSizeMul(series string) float64 {
	switch series {
	case "node":
		return 3.2
	case "hello-world":
		return 0.04
	default:
		return 0.7 + 0.6*frac(c.hash64("sizemul", series))
	}
}

// avgFileBytes is the expected file size of the distribution in
// fileSize; used to derive file counts from package byte budgets.
const avgFileBytes = 7300

// fileSize returns the deterministic size of file i of a package.
// Cold files follow a heavy-tailed distribution (mostly small files, a
// medium tier, a large tail — the paper notes files in Docker images are
// usually small). Hot files draw from a tight band around the mean so a
// package's launch-time byte budget is hotFrac*packageBytes with low
// variance — the calibration the Fig 2/Fig 8 targets rest on.
func (c *Corpus) fileSize(p *pkg, i int) int {
	h := c.hash64("size", p.key, fmt.Sprint(i))
	var size int
	if c.isHot(p, i) {
		size = int(avgFileBytes * (0.5 + frac(h)))
	} else {
		r := rand.New(rand.NewSource(int64(h)))
		switch q := frac(h); {
		case q < 0.60:
			size = 64 + r.Intn(2048-64)
		case q < 0.90:
			size = 2048 + r.Intn(16384-2048)
		default:
			size = 16384 + r.Intn(65536-16384)
		}
	}
	size = int(float64(size) * p.sizeMul)
	if size < 16 {
		size = 16
	}
	return size
}

// isHot reports whether file i of a package belongs to the launch-time
// (necessary) set. Selection is rank-based — exactly ceil(hotFrac*files)
// files are hot — so the necessary set's size has no sampling variance
// even for small packages.
func (c *Corpus) isHot(p *pkg, i int) bool {
	hot := int(math.Ceil(p.hotFrac * float64(p.files)))
	return i < hot
}

// contentGen returns the generation whose content file i currently
// carries: the most recent generation at which the file churned. A file
// churns at generation g>0 with its churn probability; generation 0 is
// the file's birth.
func (c *Corpus) contentGen(p *pkg, i int) int {
	churn := p.coldChurn
	if c.isHot(p, i) {
		churn = p.hotChurn
	}
	for g := p.gen; g > 0; g-- {
		if frac(c.hash64("churn", p.key, fmt.Sprint(i), fmt.Sprint(g))) < churn {
			return g
		}
	}
	return 0
}

// fileBytes produces the deterministic content of file i at a content
// generation: a blend of repetitive (compressible) and pseudo-random
// (incompressible) bytes in a stable per-file ratio.
func (c *Corpus) fileBytes(p *pkg, i, contentGen, size int) []byte {
	seed := int64(c.hash64("content", p.key, fmt.Sprint(i), fmt.Sprint(contentGen)))
	r := rand.New(rand.NewSource(seed))
	// Per-file compressibility: between 25% and 85% repetitive.
	textRatio := 0.25 + 0.6*frac(c.hash64("text", p.key, fmt.Sprint(i)))
	textLen := int(float64(size) * textRatio)

	out := make([]byte, size)
	token := []byte(fmt.Sprintf("%s-%d-g%d ", p.key, i, contentGen))
	for off := 0; off < textLen; off += len(token) {
		copy(out[off:min(off+len(token), textLen)], token)
	}
	r.Read(out[textLen:])
	return out
}

// filePath returns the stable path of file i of a package.
func (c *Corpus) filePath(p *pkg, i int) string {
	dir := p.dirs[int(c.hash64("dir", p.key, fmt.Sprint(i))%uint64(len(p.dirs)))]
	exts := []string{".so", ".bin", ".conf", ".dat", ".txt", ".mo"}
	ext := exts[int(c.hash64("ext", p.key, fmt.Sprint(i))%uint64(len(exts)))]
	return fmt.Sprintf("%s/%s-%04d%s", dir, shortKey(p.key), i, ext)
}

func shortKey(key string) string {
	return strings.Map(func(r rune) rune {
		if r == '/' {
			return '_'
		}
		return r
	}, key)
}

// packages returns the package stack of (series, version), bottom first.
func (c *Corpus) packages(s *Series, version int) []*pkg {
	prof := profiles[s.Category]
	mul := c.seriesSizeMul(s.Name)

	mkPkg := func(key string, gen int, bytesBudget int, dirs []string, hotFrac, hotChurn, coldChurn float64) *pkg {
		files := int(float64(bytesBudget) * c.opts.Scale * mul / avgFileBytes)
		if files < 3 {
			files = 3
		}
		return &pkg{
			key:       key,
			gen:       gen,
			dirs:      dirs,
			files:     files,
			hotFrac:   hotFrac,
			hotChurn:  hotChurn,
			coldChurn: coldChurn,
			sizeMul:   1,
		}
	}

	var out []*pkg

	// hello-world is genuinely tiny on Docker Hub: a single static
	// binary, no OS base, no runtime.
	if s.Name == "hello-world" {
		tiny := mkPkg("hello-world-base", version/prof.baseEvery, prof.baseBytes,
			[]string{"/"}, 0.5, prof.appHotChurn, prof.coldChurn)
		tiny.files = 2
		tiny.sizeMul = 0.1
		tiny.shared = true
		app := mkPkg("hello-world-app", version, prof.appBytes,
			[]string{"/opt/hello-world", "/opt/hello-world/bin"}, 0.8,
			prof.appHotChurn, prof.coldChurn)
		app.files = 2
		app.sizeMul = 0.1
		return []*pkg{tiny, app}
	}

	// OS base: shared lineage for non-distro categories, per-series for
	// distros. Generation bumps every baseEvery versions, staggered per
	// series so releases do not all align.
	baseKey := s.Name + "-base"
	baseHotChurn := prof.appHotChurn * 0.6 // distro bases churn slower than apps
	baseColdChurn := prof.coldChurn
	if prof.sharedBase {
		// The shared osbase's content parameters are global so its files
		// are a pure function of generation across every category.
		baseKey = "osbase"
		baseHotChurn = osbaseHotChurn
		baseColdChurn = osbaseColdChurn
	}
	offset := int(c.hash64("stagger", s.Name) % uint64(prof.baseEvery))
	baseGen := (version + offset) / prof.baseEvery
	base := mkPkg(baseKey, baseGen, prof.baseBytes,
		[]string{"/bin", "/lib", "/etc", "/usr/share"},
		prof.baseHotFrac, baseHotChurn, baseColdChurn)
	if prof.sharedBase {
		// Size is independent of the series personality so every series
		// sees identical base files.
		base.files = int(float64(prof.baseBytes) * c.opts.Scale / avgFileBytes)
		if base.files < 3 {
			base.files = 3
		}
		// Hot designation must also be category-independent.
		base.hotFrac = 0.03
	}
	base.shared = true
	out = append(out, base)

	// Category runtime (absent for distros).
	if prof.runtimeBytes > 0 {
		slug := runtimeSlug(s.Category)
		roffset := int(c.hash64("rstagger", s.Name) % uint64(prof.baseEvery))
		rgen := (version + roffset) / prof.baseEvery
		rt := mkPkg(slug+"-runtime", rgen, prof.runtimeBytes,
			[]string{"/usr/lib/" + slug, "/usr/share/" + slug},
			prof.rtHotFrac, rtHotChurn, prof.coldChurn)
		// Shared runtime files must be identical across the category.
		rt.files = int(float64(prof.runtimeBytes) * c.opts.Scale / avgFileBytes)
		if rt.files < 3 {
			rt.files = 3
		}
		rt.shared = true
		out = append(out, rt)
	}

	// Application library package: the app's cold payload (bundled
	// libraries, locale data). Every release rebuilds this layer — so its
	// digest changes and Docker's layer-level dedup re-stores it — but
	// only coldChurn of its files actually differ, which is exactly the
	// in-layer redundancy Gear's file-level sharing removes (§II-D).
	applibBytes := int(float64(prof.appBytes) * (1 - prof.appHotFrac))
	if applibBytes > 0 {
		applib := mkPkg(s.Name+"-applib", version, applibBytes,
			[]string{"/opt/" + s.Name, "/opt/" + s.Name + "/lib", "/etc/" + s.Name},
			0, 0, prof.coldChurn)
		out = append(out, applib)
	}

	// Application binary package: the hot, launch-time payload —
	// recompiled binaries and entry configs. New generation every
	// version; every file belongs to the necessary set.
	appbinBytes := int(float64(prof.appBytes) * prof.appHotFrac)
	appbin := mkPkg(s.Name+"-appbin", version, appbinBytes,
		[]string{"/opt/" + s.Name, "/opt/" + s.Name + "/bin"},
		1.0, prof.appHotChurn, prof.appHotChurn)
	out = append(out, appbin)
	return out
}

func runtimeSlug(cat Category) string {
	switch cat {
	case Language:
		return "langrt"
	case Database:
		return "dbrt"
	case WebComponent:
		return "webrt"
	case Platform:
		return "platrt"
	case Others:
		return "miscrt"
	default:
		return "rt"
	}
}

// packageTree renders a package instance as a filesystem tree.
func (c *Corpus) packageTree(p *pkg) (*vfs.FS, error) {
	f := vfs.New()
	for _, d := range p.dirs {
		if err := f.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("corpus: package %s: %w", p.key, err)
		}
	}
	for i := 0; i < p.files; i++ {
		size := c.fileSize(p, i)
		data := c.fileBytes(p, i, c.contentGen(p, i), size)
		mode := fs.FileMode(0o644)
		if strings.HasSuffix(c.filePath(p, i), ".bin") {
			mode = 0o755
		}
		if err := f.WriteFile(c.filePath(p, i), data, mode); err != nil {
			return nil, fmt.Errorf("corpus: package %s: %w", p.key, err)
		}
	}
	return f, nil
}

// Image builds the Docker image of (series, version): one layer per
// package, bottom first, plus a start script and version marker in the
// app layer. The base and runtime layers are built once per Corpus and
// stacked into every image that shares them.
func (c *Corpus) Image(series string, version int) (*imagefmt.Image, error) {
	s, _, err := c.lookup(series, version)
	if err != nil {
		return nil, err
	}
	b := imagefmt.NewBuilder(series, versionTag(version))
	b.SetConfig(imagefmt.Config{
		Env:        []string{"PATH=/bin:/opt/" + series + "/bin", "SERIES=" + series},
		Entrypoint: []string{"/opt/" + series + "/bin/start"},
		Labels:     map[string]string{"io.corpus.category": s.Category.String()},
	})
	pkgs := c.packages(s, version)
	for i, p := range pkgs {
		var layer *imagefmt.Layer
		switch {
		case p.shared:
			layer, err = c.sharedLayer(p)
		case i == len(pkgs)-1:
			layer, err = c.layer(p, func(tree *vfs.FS) error { return appExtras(tree, series, version) })
		default:
			layer, err = c.layer(p, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("corpus: image %s:%s: %w", series, versionTag(version), err)
		}
		b.AddLayer(layer)
	}
	return b.Build()
}

// appExtras adds the app layer's entrypoint and version marker.
func appExtras(tree *vfs.FS, series string, version int) error {
	if err := tree.MkdirAll("/opt/"+series+"/bin", 0o755); err != nil {
		return err
	}
	if err := tree.WriteFile("/opt/"+series+"/bin/start", []byte(startScript(series, version)), 0o755); err != nil {
		return err
	}
	return tree.WriteFile("/opt/"+series+"/VERSION", []byte(versionTag(version)), 0o644)
}

func startScript(series string, version int) string {
	return fmt.Sprintf("#!/bin/sh\nexec %s-daemon --version=%s\n", series, versionTag(version))
}

// layer renders p's tree, lets extra (if set) add to it, and packs it.
func (c *Corpus) layer(p *pkg, extra func(*vfs.FS) error) (*imagefmt.Layer, error) {
	tree, err := c.packageTree(p)
	if err != nil {
		return nil, err
	}
	if extra != nil {
		if err := extra(tree); err != nil {
			return nil, err
		}
	}
	return imagefmt.NewLayerFromDiff(tree)
}

// sharedLayer returns the layer of a shared package, building it the
// first time any image asks: concurrent callers of one descriptor wait
// for that one build.
func (c *Corpus) sharedLayer(p *pkg) (*imagefmt.Layer, error) {
	k := p.memoKey()
	c.memoMu.Lock()
	e := c.memo[k]
	if e == nil {
		e = new(memoLayer)
		c.memo[k] = e
	}
	c.memoMu.Unlock()
	e.once.Do(func() {
		c.memoBuilds.Add(1)
		e.layer, e.err = c.layer(p, nil)
	})
	return e.layer, e.err
}

// AccessItem is one launch-time file access.
type AccessItem struct {
	Path string
	Size int64
}

// NecessarySet returns the files a container of (series, version) reads
// while launching and serving its first request, in access order (base,
// runtime, then app). This is the "necessary data" of §II-D/Fig 2 and
// the on-demand download set of Fig 8/9.
func (c *Corpus) NecessarySet(series string, version int) ([]AccessItem, error) {
	s, _, err := c.lookup(series, version)
	if err != nil {
		return nil, err
	}
	var items []AccessItem
	for _, p := range c.packages(s, version) {
		var pkgItems []AccessItem
		for i := 0; i < p.files; i++ {
			if !c.isHot(p, i) {
				continue
			}
			pkgItems = append(pkgItems, AccessItem{
				Path: c.filePath(p, i),
				Size: int64(c.fileSize(p, i)),
			})
		}
		sort.Slice(pkgItems, func(a, b int) bool { return pkgItems[a].Path < pkgItems[b].Path })
		items = append(items, pkgItems...)
	}
	items = append(items, AccessItem{
		Path: "/opt/" + series + "/bin/start",
		Size: int64(len(startScript(series, version))),
	})
	return items, nil
}
