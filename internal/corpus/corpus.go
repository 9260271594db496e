// Package corpus generates the synthetic image population that stands in
// for the paper's workload: the top-50 most popular Docker Hub image
// series (Table I), 971 images across six categories, with the
// inter-version and inter-series redundancy structure the paper measures
// in §II-D, Fig 2, Fig 7, and Table II.
//
// Everything is deterministic in (Options.Seed, Options.Scale): a series'
// images are built on demand, byte-for-byte reproducible, so experiments
// need not hold 971 images in memory. The layers images share are built
// once per Corpus: an OS base or category runtime layer, once built, is
// kept and stacked into every image that has it, as a Docker host keeps
// one copy of a layer per digest. Only those lineages are kept, because
// only they repeat. At Scale 1 with seed 7, generating all 971 images
// keeps 113 layers (11.8 MB gzipped); keeping every layer but the app's
// top one would keep 1 079 (54.4 MB), one application library layer per
// image, none of them ever asked for again.
//
// The generative model mirrors how real images are built:
//
//   - every image stacks three layers: an OS base package, a category
//     runtime package, and a series-specific application package;
//   - packages evolve by churning a fraction of their files per version
//     (cold files churn rarely; hot files — the ones a container touches
//     at launch — churn at the category's release cadence);
//   - base packages change only every few versions, and most non-distro
//     series share one OS base lineage, producing the cross-series
//     duplication that file-level dedup exploits (Fig 7b);
//   - file contents are a deterministic blend of repetitive (text-like)
//     and incompressible (binary-like) bytes so gzip behaves realistically.
//
// Scale 1.0 produces a corpus roughly 1/1000 of the paper's byte volume
// with the same distributions; ratios, not absolute bytes, are what the
// experiments reproduce.
package corpus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gear-image/gear/internal/imagefmt"
)

// Category classifies a series per Table I.
type Category int

// The six categories of Table I.
const (
	Distro Category = iota + 1
	Language
	Database
	WebComponent
	Platform
	Others
)

// Categories lists all categories in Table I order.
func Categories() []Category {
	return []Category{Distro, Language, Database, WebComponent, Platform, Others}
}

// String returns the category's display name as the paper prints it.
func (c Category) String() string {
	switch c {
	case Distro:
		return "Linux Distro"
	case Language:
		return "Language"
	case Database:
		return "Database"
	case WebComponent:
		return "Web Component"
	case Platform:
		return "Application Platform"
	case Others:
		return "Others"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// MarshalText renders the category name in JSON map keys and fields.
func (c Category) MarshalText() ([]byte, error) {
	return []byte(c.String()), nil
}

// UnmarshalText parses a category display name.
func (c *Category) UnmarshalText(text []byte) error {
	for _, cat := range Categories() {
		if cat.String() == string(text) {
			*c = cat
			return nil
		}
	}
	return fmt.Errorf("corpus: unknown category %q", text)
}

// Series is one image series (e.g. "nginx") with its versions.
type Series struct {
	Name     string
	Category Category
	// NumVersions is how many versions were collected (20 for most
	// series; hello-world, centos and eclipse-mosquitto have fewer, per
	// §V-A).
	NumVersions int
}

// Tags returns the version tags, oldest first ("v01".."vNN").
func (s *Series) Tags() []string {
	tags := make([]string, s.NumVersions)
	for i := range tags {
		tags[i] = versionTag(i)
	}
	return tags
}

func versionTag(i int) string { return fmt.Sprintf("v%02d", i+1) }

// seriesTable is Table I with the paper's version-count exceptions chosen
// so the corpus totals exactly 971 images.
var seriesTable = []Series{
	// Linux Distro (6)
	{"alpine", Distro, 20}, {"amazonlinux", Distro, 20}, {"busybox", Distro, 20},
	{"centos", Distro, 10}, {"debian", Distro, 20}, {"ubuntu", Distro, 20},
	// Language (6)
	{"golang", Language, 20}, {"java", Language, 20}, {"openjdk", Language, 20},
	{"php", Language, 20}, {"python", Language, 20}, {"ruby", Language, 20},
	// Database (11)
	{"cassandra", Database, 20}, {"couchbase", Database, 20}, {"crate", Database, 20},
	{"elasticsearch", Database, 20}, {"influxdb", Database, 20}, {"mariadb", Database, 20},
	{"memcached", Database, 20}, {"mongo", Database, 20}, {"mysql", Database, 20},
	{"postgres", Database, 20}, {"redis", Database, 20},
	// Web Component (11)
	{"consul", WebComponent, 20}, {"eclipse-mosquitto", WebComponent, 16},
	{"haproxy", WebComponent, 20}, {"httpd", WebComponent, 20}, {"kibana", WebComponent, 20},
	{"kong", WebComponent, 20}, {"nginx", WebComponent, 20}, {"node", WebComponent, 20},
	{"telegraf", WebComponent, 20}, {"tomcat", WebComponent, 20}, {"traefik", WebComponent, 20},
	// Application Platform (8)
	{"drupal", Platform, 20}, {"ghost", Platform, 20}, {"jenkins", Platform, 20},
	{"nextcloud", Platform, 20}, {"rabbitmq", Platform, 20}, {"solr", Platform, 20},
	{"sonarqube", Platform, 20}, {"wordpress", Platform, 20},
	// Others (8)
	{"chronograf", Others, 20}, {"docker", Others, 20}, {"gradle", Others, 20},
	{"hello-world", Others, 5}, {"logstash", Others, 20}, {"maven", Others, 20},
	{"registry", Others, 20}, {"vault", Others, 20},
}

// profile holds the per-category generation parameters calibrated against
// the paper's measured ratios (see DESIGN.md §2 for the mapping).
type profile struct {
	// baseBytes/runtimeBytes/appBytes size the three packages at Scale 1.
	baseBytes    int
	runtimeBytes int
	appBytes     int
	// baseEvery is how many versions between OS-base (and runtime)
	// generation bumps.
	baseEvery int
	// coldChurn is the per-generation fraction of cold files replaced in
	// the runtime/app packages; it drives registry dedup (Fig 7a).
	coldChurn float64
	// appHotChurn is the per-version fraction of hot app files replaced
	// (recompiled binaries and the like); it is the main driver of the
	// necessary-data redundancy of Fig 2.
	appHotChurn float64
	// baseHotFrac/rtHotFrac/appHotFrac are the fractions of each
	// package's files a launch touches. Combined they keep the necessary
	// set within the paper's 6.4%-33.3% on-demand window, weighted
	// heavily toward the app package.
	baseHotFrac float64
	rtHotFrac   float64
	appHotFrac  float64
	// sharedBase marks categories whose series are built on a common OS
	// base lineage (everything but the distro images themselves).
	sharedBase bool
	// taskCompute is the modeled post-launch task duration for Fig 9's
	// run phase.
	taskCompute time.Duration
}

// Shared-package churn parameters. These are global — NOT per category —
// because the osbase package's content must be a pure function of its
// generation for cross-category dedup to hold.
const (
	osbaseColdChurn = 0.10
	osbaseHotChurn  = 0.60
	// rtHotChurn is the per-generation hot churn of category runtimes.
	rtHotChurn = 0.60
)

// profiles is the calibration table. Targets: Fig 7a per-category storage
// savings (Distro 20.5%, Language 32.8%, DB 52.2%, Web 60.9%, Platform
// 58.6%, Others 46.7%), Fig 2 necessary-data redundancy (DB 56.0%,
// Platform 57.4%, average 39.9%).
var profiles = map[Category]profile{
	Distro: {
		baseBytes: 280_000, runtimeBytes: 0, appBytes: 40_000,
		baseEvery: 2, coldChurn: 0.75, appHotChurn: 0.95,
		baseHotFrac: 0.08, appHotFrac: 0.80,
		sharedBase: false, taskCompute: 300 * time.Millisecond,
	},
	Language: {
		baseBytes: 250_000, runtimeBytes: 130_000, appBytes: 60_000,
		baseEvery: 3, coldChurn: 0.04, appHotChurn: 0.97,
		baseHotFrac: 0.03, rtHotFrac: 0.06, appHotFrac: 0.50,
		sharedBase: true, taskCompute: 1000 * time.Millisecond,
	},
	Database: {
		baseBytes: 200_000, runtimeBytes: 130_000, appBytes: 220_000,
		baseEvery: 5, coldChurn: 0.30, appHotChurn: 0.50,
		baseHotFrac: 0.03, rtHotFrac: 0.06, appHotFrac: 0.55,
		sharedBase: true, taskCompute: 2000 * time.Millisecond,
	},
	WebComponent: {
		baseBytes: 180_000, runtimeBytes: 110_000, appBytes: 150_000,
		baseEvery: 5, coldChurn: 0.04, appHotChurn: 0.86,
		baseHotFrac: 0.03, rtHotFrac: 0.06, appHotFrac: 0.25,
		sharedBase: true, taskCompute: 1500 * time.Millisecond,
	},
	Platform: {
		baseBytes: 200_000, runtimeBytes: 150_000, appBytes: 190_000,
		baseEvery: 6, coldChurn: 0.14, appHotChurn: 0.49,
		baseHotFrac: 0.03, rtHotFrac: 0.06, appHotFrac: 0.60,
		sharedBase: true, taskCompute: 2500 * time.Millisecond,
	},
	Others: {
		baseBytes: 150_000, runtimeBytes: 90_000, appBytes: 130_000,
		baseEvery: 4, coldChurn: 0.05, appHotChurn: 0.90,
		baseHotFrac: 0.03, rtHotFrac: 0.06, appHotFrac: 0.30,
		sharedBase: true, taskCompute: 1000 * time.Millisecond,
	},
}

// Options configures corpus generation.
type Options struct {
	// Seed varies all content deterministically.
	Seed int64
	// Scale multiplies package byte sizes. 1.0 is the calibrated corpus
	// (~1/1000 of the paper's volume); tests typically run 0.05-0.2.
	Scale float64
	// SeriesFilter, when non-empty, restricts generation to the named
	// series (useful for single-series experiments like Fig 10's tomcat
	// rollout).
	SeriesFilter []string
	// MaxVersions, when > 0, caps versions per series.
	MaxVersions int
}

// Errors returned by corpus operations.
var (
	ErrBadScale  = errors.New("scale must be positive")
	ErrNoSeries  = errors.New("unknown series")
	ErrNoVersion = errors.New("version out of range")
)

// Corpus is a generated image population. It is safe for concurrent
// use.
type Corpus struct {
	opts   Options
	series []Series
	byName map[string]*Series

	// memo holds the layer of every shared package instance built so far
	// (see sharedLayer); memoBuilds counts the builds.
	memoMu     sync.Mutex
	memo       map[string]*memoLayer
	memoBuilds atomic.Int64
}

// memoLayer is one shared layer, built once.
type memoLayer struct {
	once  sync.Once
	layer *imagefmt.Layer
	err   error
}

// New validates opts and returns a Corpus. No image bytes are produced
// until Image/NecessarySet are called.
func New(opts Options) (*Corpus, error) {
	if opts.Scale <= 0 {
		return nil, fmt.Errorf("corpus: scale %f: %w", opts.Scale, ErrBadScale)
	}
	keep := func(name string) bool {
		if len(opts.SeriesFilter) == 0 {
			return true
		}
		for _, f := range opts.SeriesFilter {
			if f == name {
				return true
			}
		}
		return false
	}
	c := &Corpus{opts: opts, byName: make(map[string]*Series), memo: make(map[string]*memoLayer)}
	for _, s := range seriesTable {
		if !keep(s.Name) {
			continue
		}
		if opts.MaxVersions > 0 && s.NumVersions > opts.MaxVersions {
			s.NumVersions = opts.MaxVersions
		}
		c.series = append(c.series, s)
		c.byName[s.Name] = &c.series[len(c.series)-1]
	}
	if len(c.series) == 0 {
		return nil, fmt.Errorf("corpus: filter matched nothing: %w", ErrNoSeries)
	}
	return c, nil
}

// Series lists the generated series in Table I order.
func (c *Corpus) Series() []Series {
	out := make([]Series, len(c.series))
	copy(out, c.series)
	return out
}

// lookup resolves a series/version pair.
func (c *Corpus) lookup(series string, version int) (*Series, profile, error) {
	s, ok := c.byName[series]
	if !ok {
		return nil, profile{}, fmt.Errorf("corpus: %q: %w", series, ErrNoSeries)
	}
	if version < 0 || version >= s.NumVersions {
		return nil, profile{}, fmt.Errorf("corpus: %s version %d of %d: %w",
			series, version, s.NumVersions, ErrNoVersion)
	}
	return s, profiles[s.Category], nil
}

// TaskCompute returns the modeled post-launch task duration for a series
// (the container's actual work in Fig 9's run phase).
func (c *Corpus) TaskCompute(series string) (time.Duration, error) {
	s, ok := c.byName[series]
	if !ok {
		return 0, fmt.Errorf("corpus: %q: %w", series, ErrNoSeries)
	}
	return profiles[s.Category].taskCompute, nil
}
