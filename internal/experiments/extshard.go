package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/shardreg"
)

// ExtShardPoint is one shard-count sample of the sharded-registry
// sweep: the extload client fleet rerun against a shardreg tier of S
// members.
type ExtShardPoint struct {
	// Shards/Replication describe the tier.
	Shards      int `json:"shards"`
	Replication int `json:"replication"`
	// ClientEgress is what the client fleet pulled over its WAN links —
	// invariant across shard counts (the tier changes who serves, not
	// what a client downloads).
	ClientEgress int64 `json:"clientEgress"`
	// TierEgress is the total bytes the shards served; MaxShardEgress
	// is the hottest single shard's share of it. Near-linear scaling
	// means MaxShardEgress ~ TierEgress/S.
	TierEgress     int64 `json:"tierEgress"`
	MaxShardEgress int64 `json:"maxShardEgress"`
	// MaxShardServe is the hottest shard's busy time serving its share —
	// the tier-side tail that bounds how fast a fleet can be fed. It is
	// the quantity that must fall near-linearly with S.
	MaxShardServe time.Duration `json:"maxShardServe"`
	// MaxReadShare is the largest fraction of the tier's served read
	// requests any one replica answered during the rollout — the
	// request-count analogue of MaxShardEgress (rank-order reads pin it
	// to the primary split; balanced reads spread it).
	MaxReadShare float64 `json:"maxReadShare"`
	// MeanDeploy is the client-side mean deployment time.
	MeanDeploy time.Duration `json:"meanDeploy"`
	// ParityOK reports every client pulled exactly the bytes it pulls
	// from the single-node registry baseline.
	ParityOK bool `json:"parityOK"`
}

// ExtShardFailover is the sweep's replica-failover pass: one shard
// killed, the rollout rerun, and the clients' bytes compared to the
// healthy baseline.
type ExtShardFailover struct {
	Shards      int    `json:"shards"`
	Replication int    `json:"replication"`
	Killed      string `json:"killed"`
	// Failovers counts re-routes past the dead shard; ParityOK reports
	// per-client byte parity with the baseline (replicas serve the
	// identical compressed bytes).
	Failovers int64 `json:"failovers"`
	ParityOK  bool  `json:"parityOK"`
}

// ExtShardResult is the sharded Gear Registry tier experiment: the
// extload/extp2p rollout served by 1/2/4/8 consistent-hash shards, plus
// a kill-one-shard failover pass at replication 2.
type ExtShardResult struct {
	Series   string  `json:"series"`
	Versions int     `json:"versions"`
	Clients  int     `json:"clients"`
	WANMbps  float64 `json:"wanMbps"`
	// BaselineEgress/BaselineMeanTime are the single-node registry
	// reference the 1-shard point must reproduce exactly.
	BaselineEgress   int64            `json:"baselineEgress"`
	BaselineMeanTime time.Duration    `json:"baselineMeanTime"`
	Points           []ExtShardPoint  `json:"points"`
	Failover         ExtShardFailover `json:"failover"`
}

// extShardSweep is the swept shard-count axis. The 1-shard tier runs
// replication 1 — the exact single-node degeneration; the rest run the
// failover-capable replication 2.
var extShardSweep = []struct {
	shards   int
	replicas int
}{
	{1, 1},
	{2, 2},
	{4, 2},
	{8, 2},
}

// Client fleet shape: the extp2p 8-node fleet at the paper's 20 Mbps
// edge uplink; shards talk to the world over the same class of link.
const (
	extShardClients = 8
	extShardWANMbps = 20
	extShardLANMbps = 1000
	extShardFailAt  = 4 // shard count of the failover pass
)

// RunExtShard reruns the rolling-deployment fleet against sharded
// registry tiers and measures how the serving load splits. Placement is
// consistent hashing with virtual nodes, so the hottest shard's egress
// and busy time fall near-linearly as shards are added, while every
// client pulls bit-identical bytes — and the 1-shard/1-replica point
// reproduces the single-node registry baseline exactly.
func RunExtShard(cfg Config) (*ExtShardResult, error) {
	if cfg.VersionsPerSeries <= 0 || cfg.VersionsPerSeries > 4 {
		cfg.VersionsPerSeries = 4
	}
	if cfg.SeriesPerCategory <= 0 || cfg.SeriesPerCategory > 2 {
		cfg.SeriesPerCategory = 2
	}
	// The whole (capped) corpus, not one series: consistent hashing needs
	// a population of objects before the per-shard split is worth
	// measuring.
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	series := cfg.pickSeries(co)
	r, err := cfg.buildRig(co, series, false)
	if err != nil {
		return nil, err
	}
	versions := 0
	computes := make(map[string]time.Duration, len(series))
	for _, s := range series {
		versions += s.NumVersions
		if computes[s.Name], err = co.TaskCompute(s.Name); err != nil {
			return nil, err
		}
	}
	// rolloutAll rolls every series' versions out on one client daemon.
	rolloutAll := func(d *dockersim.Daemon) (int64, time.Duration, error) {
		var bytes int64
		var total time.Duration
		for _, s := range series {
			got, t, err := rollout(co, d, s, computes[s.Name])
			if err != nil {
				return 0, 0, err
			}
			bytes += got
			total += t
		}
		return bytes, total, nil
	}

	res := &ExtShardResult{
		Series:   fmt.Sprintf("%d series", len(series)),
		Versions: versions,
		Clients:  extShardClients,
		WANMbps:  extShardWANMbps,
	}

	// Baseline: the client fleet against the single-node registry.
	baseBytes := make([]int64, extShardClients)
	var baseTotal time.Duration
	for n := 0; n < extShardClients; n++ {
		d, err := cfg.newDaemon(r, extShardWANMbps)
		if err != nil {
			return nil, err
		}
		got, total, err := rolloutAll(d)
		if err != nil {
			return nil, err
		}
		baseBytes[n] = got
		res.BaselineEgress += got
		baseTotal += total
	}
	deploys := time.Duration(extShardClients * versions)
	res.BaselineMeanTime = baseTotal / deploys

	// shardedRollout runs the client fleet against a fresh tier of the
	// given shape (optionally killing one shard first) and returns the
	// point plus the failovers its reads took and the killed shard.
	shardedRollout := func(shards, replicas int, kill bool) (ExtShardPoint, int64, string, error) {
		point := ExtShardPoint{Shards: shards, Replication: replicas}
		topo, err := netsim.NewTopology(cfg.link(extShardWANMbps), cfg.link(extShardLANMbps))
		if err != nil {
			return point, 0, "", err
		}
		ids := make([]string, shards)
		for i := range ids {
			ids[i] = fmt.Sprintf("shard%02d", i)
		}
		cluster, err := shardreg.New(shardreg.Options{
			Shards:      ids,
			Replication: replicas,
			Compress:    true,
			Telemetry:   cfg.Telemetry,
			Topology:    topo,
		})
		if err != nil {
			return point, 0, "", err
		}
		if _, err := cluster.Seed(r.gear); err != nil {
			return point, 0, "", err
		}
		// Seeding moved bytes through the shard links; reset the clock
		// so the point measures serving, not migration.
		seeded := make(map[string]netsim.Stats, shards)
		victim := ""
		if kill {
			// Kill the member carrying the most primary routes — the
			// worst-case single failure.
			load := cluster.PrimaryLoad()
			most := -1
			for _, id := range cluster.Shards() {
				if load[id] > most {
					most, victim = load[id], id
				}
			}
			if err := cluster.KillShard(victim); err != nil {
				return point, 0, "", err
			}
		}
		for _, id := range cluster.Shards() {
			seeded[id] = topo.Node(id).WAN.Stats()
		}
		// Read counters are cumulative across the sweep's clusters (they
		// share one telemetry registry), so the point's share comes from
		// before/after deltas.
		readsBefore := cluster.Stats()
		point.ParityOK = true
		var tierTotal time.Duration
		for n := 0; n < extShardClients; n++ {
			d, err := dockersim.NewDaemon(r.docker, cluster, cfg.daemonOptions(extShardWANMbps))
			if err != nil {
				return point, 0, "", err
			}
			got, total, err := rolloutAll(d)
			if err != nil {
				return point, 0, "", err
			}
			if got != baseBytes[n] {
				point.ParityOK = false
			}
			point.ClientEgress += got
			tierTotal += total
		}
		for _, id := range cluster.Shards() {
			served := topo.Node(id).WAN.Stats().Sub(seeded[id])
			point.TierEgress += served.Bytes
			if served.Bytes > point.MaxShardEgress {
				point.MaxShardEgress = served.Bytes
			}
			if served.Elapsed > point.MaxShardServe {
				point.MaxShardServe = served.Elapsed
			}
		}
		readsAfter := cluster.Stats()
		prior := make(map[string]int64, len(readsBefore.Shards))
		for _, s := range readsBefore.Shards {
			prior[s.ID] = s.Reads
		}
		if total := readsAfter.Reads - readsBefore.Reads; total > 0 {
			for _, s := range readsAfter.Shards {
				if share := float64(s.Reads-prior[s.ID]) / float64(total); share > point.MaxReadShare {
					point.MaxReadShare = share
				}
			}
		}
		point.MeanDeploy = tierTotal / deploys
		return point, readsAfter.Failovers - readsBefore.Failovers, victim, nil
	}

	for _, pt := range extShardSweep {
		point, _, _, err := shardedRollout(pt.shards, pt.replicas, false)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, point)
	}

	// Failover pass: one dead shard at replication 2 — clients must
	// pull bit-identical bytes from the replicas.
	fpoint, failovers, victim, err := shardedRollout(extShardFailAt, 2, true)
	if err != nil {
		return nil, err
	}
	res.Failover = ExtShardFailover{
		Shards:      extShardFailAt,
		Replication: 2,
		Killed:      victim,
		Failovers:   failovers,
		ParityOK:    fpoint.ParityOK,
	}
	return res, nil
}

// Print renders the shard-count sweep.
func (r *ExtShardResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s rolling deployment, %d clients @ %g Mbps vs sharded registry tier\n",
		r.Series, r.Clients, r.WANMbps)
	fmt.Fprintf(w, "single-node baseline: %s egress, %v mean deploy\n",
		mb(r.BaselineEgress), r.BaselineMeanTime.Round(time.Millisecond))
	fmt.Fprintf(w, "%-7s %9s %13s %11s %15s %15s %12s %7s\n",
		"shards", "replicas", "tier egress", "max shard", "max shard busy", "max read share", "mean deploy", "parity")
	for i := range r.Points {
		p := &r.Points[i]
		fmt.Fprintf(w, "%-7d %9d %13s %11s %15s %15.3f %12s %7v\n",
			p.Shards, p.Replication, mb(p.TierEgress), mb(p.MaxShardEgress),
			p.MaxShardServe.Round(time.Millisecond), p.MaxReadShare,
			p.MeanDeploy.Round(time.Millisecond), p.ParityOK)
	}
	if len(r.Points) > 1 {
		first, last := &r.Points[0], &r.Points[len(r.Points)-1]
		if last.MaxShardEgress > 0 {
			fmt.Fprintf(w, "hottest shard egress %s -> %s (%.1fx lighter at %dx shards)\n",
				mb(first.MaxShardEgress), mb(last.MaxShardEgress),
				float64(first.MaxShardEgress)/float64(last.MaxShardEgress), last.Shards)
		}
		if last.MaxShardServe > 0 {
			fmt.Fprintf(w, "hottest shard busy time %v -> %v (%.1fx faster tier tail)\n",
				first.MaxShardServe.Round(time.Millisecond), last.MaxShardServe.Round(time.Millisecond),
				float64(first.MaxShardServe)/float64(last.MaxShardServe))
		}
	}
	f := &r.Failover
	fmt.Fprintf(w, "failover: %d shards, replication %d, killed %s: %d re-routes, client byte parity %v\n",
		f.Shards, f.Replication, f.Killed, f.Failovers, f.ParityOK)
}
