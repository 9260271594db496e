// Package experiments regenerates every table and figure of the Gear
// paper's evaluation (§II-D and §V) on the synthetic corpus. Each
// experiment has a typed result and a printer that emits the same rows
// or series the paper reports; EXPERIMENTS.md records measured-vs-paper
// for each.
//
// The experiments are registered once, in the table in this file;
// DESIGN.md §4 maps each id to the paper's table or figure. The printed
// report of every experiment at a fixed small scale is pinned exactly by
// testdata/all_mini.golden (DESIGN.md §9, "The record").
package experiments

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/fleet"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/telemetry"
)

// ErrUnknownExperiment reports an unrecognized experiment id.
var ErrUnknownExperiment = errors.New("unknown experiment")

// Config scales and seeds a run. The zero value is NOT valid; use
// Default() or Quick().
type Config struct {
	// Seed drives the deterministic corpus.
	Seed int64
	// Scale is the corpus byte scale (1.0 = calibrated, ~1/1000 of the
	// paper's volume).
	Scale float64
	// VersionsPerSeries caps versions per series for deployment-heavy
	// experiments (0 = the series' full version list).
	VersionsPerSeries int
	// SeriesPerCategory caps how many series per category deployment
	// experiments touch (0 = all).
	SeriesPerCategory int
	// Telemetry, if set, is the metrics registry every daemon the run
	// builds publishes into, so a whole sweep lands in one snapshot
	// (cmd/benchreport -metrics). Nil keeps per-daemon private
	// registries.
	Telemetry *telemetry.Registry
}

// Granularities of the corpus-scaled baselines. dedupChunkSize is Table
// II's chunk granularity, scaled with the corpus (the paper's 128 KB
// against ~380 MB images ≈ 512 B against our ~400 KB images);
// slackerBlockSize is the Fig 10 baseline's paging granularity, scaled
// alike (the paper's 4 KB against ~73 KB average files ≈ 512 B against
// our ~7 KB files).
const (
	dedupChunkSize   = 512
	slackerBlockSize = 512
)

// Default is the full calibrated configuration used by cmd/benchreport.
func Default() Config {
	return Config{Seed: 20211107, Scale: 1.0}
}

// Quick is a reduced configuration for tests and -short benches.
func Quick() Config {
	return Config{
		Seed:              20211107,
		Scale:             0.25,
		VersionsPerSeries: 4,
		SeriesPerCategory: 2,
	}
}

// BandwidthScale converts a paper-quoted link speed (Mbps) into the
// corpus-scaled effective speed so deployment times keep the paper's
// magnitude: the corpus is ~1/1000 of the paper's image bytes, so the
// link slows by the same factor.
func (c Config) BandwidthScale(mbps float64) float64 {
	return mbps / 1000 * c.Scale
}

// link returns the simulated link at a paper-quoted bandwidth.
func (c Config) link(mbps float64) netsim.LinkConfig {
	return netsim.DefaultLAN().WithBandwidth(c.BandwidthScale(mbps))
}

// newCorpus builds the corpus for this configuration.
func (c Config) newCorpus(filter []string) (*corpus.Corpus, error) {
	return corpus.New(corpus.Options{
		Seed:         c.Seed,
		Scale:        c.Scale,
		SeriesFilter: filter,
		MaxVersions:  c.VersionsPerSeries,
	})
}

// pickSeries applies the SeriesPerCategory cap, preserving Table I order.
func (c Config) pickSeries(co *corpus.Corpus) []corpus.Series {
	if c.SeriesPerCategory <= 0 {
		return co.Series()
	}
	counts := make(map[corpus.Category]int)
	var out []corpus.Series
	for _, s := range co.Series() {
		if counts[s.Category] >= c.SeriesPerCategory {
			continue
		}
		counts[s.Category]++
		out = append(out, s)
	}
	return out
}

// daemonOptions is the calibrated base every experiment daemon is built
// from; a site overrides only what it sweeps. Per-request wire overheads
// shrink with the corpus scale so the overhead-to-payload ratio stays
// calibrated at any test scale, and every daemon publishes into the
// run's registry.
func (c Config) daemonOptions(mbps float64) dockersim.Options {
	return dockersim.Options{
		Link:                c.link(mbps),
		GearRequestBytes:    int64(900 * c.Scale),
		SlackerRequestBytes: int64(120 * c.Scale),
		Telemetry:           c.Telemetry,
	}
}

// newDaemon builds a deployment daemon against the workload's
// registries at a paper-quoted bandwidth.
func (c Config) newDaemon(wl *fleet.Workload, mbps float64) (*dockersim.Daemon, error) {
	return dockersim.NewDaemon(wl.Docker, wl.Gear, c.daemonOptions(mbps))
}

// threeWays deploys every version of every workload series three ways
// at a paper-quoted bandwidth, with the series' task compute: Docker and
// cold Gear on a fresh daemon per deployment, warm Gear on one daemon
// per series that keeps its cache across versions. fn gets each triple.
func (c Config) threeWays(wl *fleet.Workload, mbps float64, fn func(s *fleet.Series, docker, cold, warm *dockersim.Deployment)) error {
	for i := range wl.Series {
		s := &wl.Series[i]
		warmD, err := c.newDaemon(wl, mbps)
		if err != nil {
			return err
		}
		for v, tag := range s.Tags {
			dockerD, err := c.newDaemon(wl, mbps)
			if err != nil {
				return err
			}
			docker, err := dockerD.DeployDocker(s.Name, tag, s.Access[v], s.Compute)
			if err != nil {
				return err
			}
			coldD, err := c.newDaemon(wl, mbps)
			if err != nil {
				return err
			}
			cold, err := coldD.DeployGear(s.Ref, tag, s.Access[v], s.Compute)
			if err != nil {
				return err
			}
			warm, err := warmD.DeployGear(s.Ref, tag, s.Access[v], s.Compute)
			if err != nil {
				return err
			}
			fn(s, docker, cold, warm)
		}
	}
	return nil
}

// fleet builds an n-node harness over wl (Seed and Telemetry from c)
// whose client WAN links run at a paper-quoted bandwidth.
func (c Config) fleet(wl *fleet.Workload, n int, mbps float64, opts fleet.Options) (*fleet.Harness, error) {
	opts.Nodes, opts.Seed, opts.Telemetry = n, c.Seed, c.Telemetry
	h, err := fleet.New(wl, opts)
	if err != nil {
		return nil, err
	}
	return h, h.Topology().SetWANConfig(c.link(mbps))
}

// rollout joins nodes 0..n-1 to h, then rolls every workload version out
// on each in node order, as one accounted phase.
func rollout(h *fleet.Harness, n int) (fleet.PhaseResult, error) {
	return h.Phase("rollout", func() error {
		for i := 0; i < n; i++ {
			if err := h.Join(fleet.NodeID(i)); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			if err := h.Rollout(fleet.NodeID(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// Runner executes one experiment and prints its result.
type Runner struct {
	// ID is the experiment identifier ("table2", "fig9", ...).
	ID string
	// Title matches the paper's table/figure caption.
	Title string
	// Run executes the experiment and writes the report to w.
	Run func(cfg Config, w io.Writer) error
	// result executes the experiment and returns its typed result.
	result func(cfg Config) (any, error)
}

// experiment builds the table row of one typed experiment: Run prints
// what result returns, so the text report and the JSON result cannot
// come from different code.
func experiment[T interface{ Print(io.Writer) }](id, title string, run func(Config) (T, error)) Runner {
	return Runner{
		ID:    id,
		Title: title,
		Run: func(cfg Config, w io.Writer) error {
			res, err := run(cfg)
			if err != nil {
				return err
			}
			res.Print(w)
			return nil
		},
		result: func(cfg Config) (any, error) { return run(cfg) },
	}
}

// table is every experiment in paper order (DESIGN.md §4 maps each to
// the paper's section) — the one registration Run, Result, IDs and All
// derive from. Adding an experiment is one row here plus its file.
var table = []Runner{
	experiment("inventory", "Workload: corpus composition (the paper's §V-A table)", RunInventory),
	experiment("table2", "Table II: storage usage and object count per dedup granularity", RunTable2),
	experiment("fig2", "Fig 2: redundancy of necessary data within image series", RunFig2),
	experiment("fig6", "Fig 6: image conversion time per series", RunFig6),
	experiment("fig7", "Fig 7: registry storage saving", RunFig7),
	experiment("fig8", "Fig 8: bandwidth usage during deployments", RunFig8),
	experiment("fig9", "Fig 9: deployment time under different bandwidths", RunFig9),
	experiment("fig10", "Fig 10: sequential Tomcat version rollout", RunFig10),
	experiment("fig11", "Fig 11: long-running and short-running workloads", RunFig11),
	experiment("extload", "Extension: registry egress under a client fleet", RunExtLoad),
	experiment("extcache", "Extension: level-1 cache capacity/policy ablation", RunExtCache),
	experiment("extparallel", "Extension: concurrent fetch engine worker sweep", RunExtParallel),
	experiment("extpush", "Extension: concurrent push engine worker sweep", RunExtPush),
	experiment("extp2p", "Extension: peer-to-peer distribution fleet/bandwidth sweep", RunExtP2P),
	experiment("extprefetch", "Extension: profile-guided startup prefetch coverage/bandwidth sweep", RunExtPrefetch),
	experiment("extfleet", "Extension: fleet-scale scenario harness (flash crowd, churn, failover, mixed)", RunExtFleet),
	experiment("extshard", "Extension: sharded registry tier shard-count sweep", RunExtShard),
	experiment("exthedge", "Extension: tail-latency-aware replica reads (balanced + hedged)", RunExtHedge),
	experiment("extchunk", "Extension: chunked lazy loading file/chunk/window sweep", RunExtChunk),
}

// all returns every experiment in paper order.
func all() []Runner { return slices.Clone(table) }

// IDs lists experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, r := range table {
		ids[i] = r.ID
	}
	return ids
}

// find returns the table row with the given id.
func find(id string) (Runner, error) {
	for _, r := range table {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: %q: %w", id, ErrUnknownExperiment)
}

// sectionHeader introduces each experiment (id, title) in the "all" report.
const sectionHeader = "\n=== %s — %s ===\n"

// Run executes the experiment with the given id ("all" runs everything).
func Run(id string, cfg Config, w io.Writer) error {
	if id == "all" {
		for _, r := range table {
			fmt.Fprintf(w, sectionHeader, r.ID, r.Title)
			if err := r.Run(cfg, w); err != nil {
				return fmt.Errorf("experiments: %s: %w", r.ID, err)
			}
		}
		return nil
	}
	r, err := find(id)
	if err != nil {
		return err
	}
	return r.Run(cfg, w)
}

// Result runs one experiment and returns its typed result for
// programmatic use (every result type carries JSON field tags). "all" is
// not supported here; run ids individually.
func Result(id string, cfg Config) (any, error) {
	r, err := find(id)
	if err != nil {
		return nil, err
	}
	return r.result(cfg)
}

// categoryOrder sorts categories in Table I order for stable output.
func categoryOrder(m map[corpus.Category]float64) []corpus.Category {
	out := make([]corpus.Category, 0, len(m))
	for cat := range m {
		out = append(out, cat)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mb renders bytes as MB with two decimals.
func mb(n int64) string { return fmt.Sprintf("%.2f MB", float64(n)/1e6) }
