package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/fleet"
	"github.com/gear-image/gear/internal/prefetch"
)

// ExtPrefetchPoint is one (profile coverage, WAN bandwidth) sample of
// the profile-guided startup prefetch sweep. Each point deploys the
// same image twice on fresh hosts: without a profile (the lazy-fault
// baseline) and with a profile truncated to the given coverage replayed
// before the run phase.
type ExtPrefetchPoint struct {
	// Coverage is the fraction of the recorded profile replayed (head of
	// the access order): 0 = no entries, 1 = the full trace.
	Coverage float64 `json:"coverage"`
	// WANMbps is the paper-quoted registry bandwidth.
	WANMbps float64 `json:"wanMbps"`
	// BaselineStall/GuidedStall are the run-phase demand-stall times.
	BaselineStall time.Duration `json:"baselineStall"`
	GuidedStall   time.Duration `json:"guidedStall"`
	// BaselineMisses/GuidedMisses count blocking demand faults.
	BaselineMisses int64 `json:"baselineMisses"`
	GuidedMisses   int64 `json:"guidedMisses"`
	// BaselineBytes/GuidedBytes are total WAN bytes for the deploy
	// (pull + prefetch + run); the replay must never inflate them.
	BaselineBytes int64 `json:"baselineBytes"`
	GuidedBytes   int64 `json:"guidedBytes"`
	// PrefetchBytes is the share of GuidedBytes moved by the replay.
	PrefetchBytes int64 `json:"prefetchBytes"`
	// PrefetchHits/PrefetchWasted report replay effectiveness: objects
	// the run consumed from the warmed cache vs objects it never read.
	PrefetchHits   int64 `json:"prefetchHits"`
	PrefetchWasted int64 `json:"prefetchWasted"`
	// BaselineTotal/GuidedTotal are full deployment times
	// (pull + prefetch + run).
	BaselineTotal time.Duration `json:"baselineTotal"`
	GuidedTotal   time.Duration `json:"guidedTotal"`
}

// StallReduction returns the demand-stall reduction the replay bought.
func (p *ExtPrefetchPoint) StallReduction() float64 {
	if p.BaselineStall == 0 {
		return 0
	}
	return 1 - float64(p.GuidedStall)/float64(p.BaselineStall)
}

// ExtPrefetchResult is the profile-guided startup prefetch experiment:
// a cold deploy records the image's startup profile, then redeploys on
// fresh hosts replay it at varying coverage and bandwidth, measuring
// how much run-phase demand stall the replay removes.
type ExtPrefetchResult struct {
	// Series is the deployed image series.
	Series string `json:"series"`
	// ProfileEntries is the recorded profile's length (first accesses).
	ProfileEntries int                `json:"profileEntries"`
	Points         []ExtPrefetchPoint `json:"points"`
}

// extPrefetchSweep is the swept (coverage, WAN Mbps) axis: the paper's
// 20 Mbps edge bandwidth across coverage levels, plus a 100 Mbps
// contrast column at full coverage.
var extPrefetchSweep = []struct {
	coverage float64
	wan      float64
}{
	{0, 20},
	{0.5, 20},
	{1, 20},
	{1, 100},
}

// RunExtPrefetch records a startup profile from a cold deploy and
// replays truncations of it on fresh hosts against no-profile
// baselines. Coverage 0 pins the degeneration: an empty profile moves
// nothing and the deploy matches the baseline exactly.
func RunExtPrefetch(cfg Config) (*ExtPrefetchResult, error) {
	if cfg.VersionsPerSeries <= 0 || cfg.VersionsPerSeries > 1 {
		cfg.VersionsPerSeries = 1
	}
	co, err := cfg.newCorpus([]string{"nginx"})
	if err != nil {
		return nil, err
	}
	wl, err := fleet.Publish(co, co.Series(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	s := &wl.Series[0]
	ref, tag := s.Ref, s.Tags[0]

	deploy := func(wan float64, lib *prefetch.Library) (*dockersim.Deployment, error) {
		opts := cfg.daemonOptions(wan)
		opts.Profiles = lib
		d, err := dockersim.NewDaemon(wl.Docker, wl.Gear, opts)
		if err != nil {
			return nil, err
		}
		return d.DeployGear(ref, tag, s.Access[0], s.Compute)
	}

	// Recording pass: a cold deploy persists the image's access trace.
	recLib := prefetch.NewLibrary()
	if _, err := deploy(100, recLib); err != nil {
		return nil, err
	}
	profile, err := recLib.Get(ref + ":" + tag)
	if err != nil {
		return nil, fmt.Errorf("recording deploy persisted no profile: %w", err)
	}

	res := &ExtPrefetchResult{Series: s.Name, ProfileEntries: len(profile.Entries)}
	for _, pt := range extPrefetchSweep {
		point := ExtPrefetchPoint{Coverage: pt.coverage, WANMbps: pt.wan}

		base, err := deploy(pt.wan, nil)
		if err != nil {
			return nil, err
		}
		point.BaselineStall = base.DemandStall
		point.BaselineMisses = base.DemandMisses
		point.BaselineBytes = base.Pull.Bytes + base.Run.Bytes
		point.BaselineTotal = base.Total()

		lib := prefetch.NewLibrary()
		if err := lib.Put(profile.Truncate(pt.coverage)); err != nil {
			return nil, err
		}
		guided, err := deploy(pt.wan, lib)
		if err != nil {
			return nil, err
		}
		point.GuidedStall = guided.DemandStall
		point.GuidedMisses = guided.DemandMisses
		point.GuidedBytes = guided.Pull.Bytes + guided.Prefetch.Bytes + guided.Run.Bytes
		point.PrefetchBytes = guided.Prefetch.Bytes
		point.PrefetchHits = guided.PrefetchHits
		point.PrefetchWasted = guided.PrefetchWasted
		point.GuidedTotal = guided.Total()

		res.Points = append(res.Points, point)
	}
	return res, nil
}

// Print renders the coverage/bandwidth sweep.
func (r *ExtPrefetchResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s warm-profile redeploy, %d-entry startup profile\n", r.Series, r.ProfileEntries)
	fmt.Fprintf(w, "%-8s %5s %12s %12s %9s %10s %11s %6s %7s\n",
		"coverage", "wan", "base stall", "with profile", "reduction",
		"prefetched", "total bytes", "hits", "wasted")
	for i := range r.Points {
		p := &r.Points[i]
		fmt.Fprintf(w, "%-8s %5g %12s %12s %8.1f%% %10s %11s %6d %7d\n",
			fmt.Sprintf("%.0f%%", p.Coverage*100), p.WANMbps,
			p.BaselineStall.Round(time.Millisecond),
			p.GuidedStall.Round(time.Millisecond),
			p.StallReduction()*100,
			mb(p.PrefetchBytes), mb(p.GuidedBytes),
			p.PrefetchHits, p.PrefetchWasted)
	}
	for i := range r.Points {
		p := &r.Points[i]
		switch {
		case p.Coverage == 1 && p.WANMbps == 20:
			fmt.Fprintf(w, "full profile @ %g Mbps: %.1f%% less demand stall, same total bytes (%s vs %s)\n",
				p.WANMbps, p.StallReduction()*100, mb(p.GuidedBytes), mb(p.BaselineBytes))
		case p.Coverage == 0 && p.GuidedBytes == p.BaselineBytes && p.PrefetchBytes == 0:
			fmt.Fprintf(w, "empty profile @ %g Mbps: degenerates exactly — zero prefetch traffic, baseline stall\n",
				p.WANMbps)
		}
	}
}
