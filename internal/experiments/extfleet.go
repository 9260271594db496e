package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/fleet"
)

// ExtFleetPoint is one (scenario, fleet size) sample of the fleet-scale
// scenario sweep.
type ExtFleetPoint struct {
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	// Deploys counts every container deployment the scenario scripted.
	Deploys int64 `json:"deploys"`
	// WANBytes is total registry egress; LANBytes is what the cluster
	// absorbed peer-to-peer instead; PeerObjects counts Gear files
	// served by peers.
	WANBytes    int64 `json:"wanBytes"`
	LANBytes    int64 `json:"lanBytes"`
	PeerObjects int64 `json:"peerObjects"`
	// MeanDeploy/MaxDeploy summarize per-deployment virtual time.
	MeanDeploy time.Duration `json:"meanDeploy"`
	MaxDeploy  time.Duration `json:"maxDeploy"`
	// Fingerprint is the run's canonical-result hash — the value replay
	// checks compare across runs of the same (scenario, seed).
	Fingerprint string `json:"fingerprint"`
}

// ExtFleetResult is the fleet-scale scenario harness experiment:
// scripted flash-crowd, churn, failover, and mixed workloads over
// thousand-node simulated fleets, every run reproducible from
// (scenario, seed).
type ExtFleetResult struct {
	Series string `json:"series"`
	// Versions is the published version depth scenarios roll through.
	Versions int             `json:"versions"`
	Seed     int64           `json:"seed"`
	Points   []ExtFleetPoint `json:"points"`
	// ReplayOK reports that re-running the first sweep point on a fresh
	// harness reproduced a bit-identical result (same fingerprint) —
	// the determinism contract, checked on every run.
	ReplayOK bool `json:"replayOK"`
}

// extFleetSweep is the (scenario, fleet size) axis: flash-crowd growth
// up to the thousand-node fleet, plus the churn, failover, and mixed
// scenarios at a mid-size fleet.
var extFleetSweep = []struct {
	kind  fleet.Kind
	nodes int
}{
	{fleet.FlashCrowd, 16},
	{fleet.FlashCrowd, 64},
	{fleet.FlashCrowd, 256},
	{fleet.FlashCrowd, 1024},
	{fleet.Churn, 64},
	{fleet.Failover, 64},
	{fleet.Mixed, 64},
}

// RunExtFleet runs the scenario sweep. Sweep-point harnesses publish
// into cfg.Telemetry (when set) so whole-run counters land in one
// snapshot; the replay check runs on private registries so its
// bit-for-bit comparison is free of cross-run accumulation.
func RunExtFleet(cfg Config) (*ExtFleetResult, error) {
	if cfg.Scale <= 0 {
		// BuildWorkload would default a zero scale; reject it here so an
		// invalid config fails fast like every other experiment.
		return nil, fmt.Errorf("extfleet: scale %g: %w", cfg.Scale, corpus.ErrBadScale)
	}
	if cfg.VersionsPerSeries <= 0 || cfg.VersionsPerSeries > 4 {
		cfg.VersionsPerSeries = 4
	}
	wl, err := fleet.BuildWorkload(fleet.WorkloadOptions{
		Seed:     cfg.Seed,
		Scale:    cfg.Scale,
		Series:   "nginx",
		Versions: cfg.VersionsPerSeries,
	})
	if err != nil {
		return nil, err
	}
	res := &ExtFleetResult{Series: wl.Series, Versions: wl.Versions(), Seed: cfg.Seed}

	run := func(kind fleet.Kind, nodes int, shared bool) (*fleet.Result, string, error) {
		opts := fleet.Options{Nodes: nodes, Seed: cfg.Seed, Peers: true}
		if shared {
			opts.Telemetry = cfg.Telemetry
		}
		h, err := fleet.New(wl, opts)
		if err != nil {
			return nil, "", err
		}
		r, err := h.Run(kind)
		if err != nil {
			return nil, "", err
		}
		fp, err := r.Fingerprint()
		if err != nil {
			return nil, "", err
		}
		return r, fp, nil
	}

	for _, sw := range extFleetSweep {
		r, fp, err := run(sw.kind, sw.nodes, true)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ExtFleetPoint{
			Scenario:    string(sw.kind),
			Nodes:       sw.nodes,
			Deploys:     r.TotalDeploys,
			WANBytes:    r.WANBytes,
			LANBytes:    r.LANBytes,
			PeerObjects: r.PeerObjects,
			MeanDeploy:  r.MeanDeploy,
			MaxDeploy:   r.MaxDeploy,
			Fingerprint: fp,
		})
	}

	// Replay check: the first sweep point, twice, on private registries.
	first := extFleetSweep[0]
	_, fp1, err := run(first.kind, first.nodes, false)
	if err != nil {
		return nil, err
	}
	_, fp2, err := run(first.kind, first.nodes, false)
	if err != nil {
		return nil, err
	}
	res.ReplayOK = fp1 == fp2
	return res, nil
}

// Print renders the scenario sweep.
func (r *ExtFleetResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s fleet scenarios (%d versions, seed %d), peers on\n",
		r.Series, r.Versions, r.Seed)
	fmt.Fprintf(w, "%-12s %6s %8s %14s %14s %12s %12s %12s\n",
		"scenario", "nodes", "deploys", "registry egress", "lan bytes",
		"peer files", "mean deploy", "max deploy")
	for i := range r.Points {
		p := &r.Points[i]
		fmt.Fprintf(w, "%-12s %6d %8d %14s %14s %12d %12s %12s\n",
			p.Scenario, p.Nodes, p.Deploys, mb(p.WANBytes), mb(p.LANBytes),
			p.PeerObjects,
			p.MeanDeploy.Round(time.Microsecond),
			p.MaxDeploy.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "replay determinism: ok=%v (same (scenario, seed) reproduces bit-identical results)\n", r.ReplayOK)
}
