package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/gear-image/gear/internal/fleet"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/shardreg"
)

// ExtHedgeCell is one (read policy, straggler condition) cell of the
// tail-latency sweep: the same shuffled single-object read stream
// replayed against a fresh 4-shard/2-replica tier.
type ExtHedgeCell struct {
	// Policy is the tier's read configuration: "primary" (rank-order
	// replica failover, the pre-balancing path), "balanced"
	// (power-of-two-choices replica selection), or "hedged" (balanced
	// plus hedged requests past the adaptive delay).
	Policy string `json:"policy"`
	// Straggler reports whether one shard ran at stragglerFactor× its
	// normal service time during the measured reads.
	Straggler bool `json:"straggler"`
	// P50/P95/P99 summarize the per-read client-observed latency.
	P50 time.Duration `json:"p50"`
	P95 time.Duration `json:"p95"`
	P99 time.Duration `json:"p99"`
	// ClientBytes is the wire volume the reads pulled — identical across
	// every cell (replicas serve the same compressed bytes, and neither
	// balancing nor hedging changes what a client downloads).
	ClientBytes int64 `json:"clientBytes"`
	// BalancedReads/HedgesFired/HedgesWon/HedgeWasteBytes are the
	// measured-phase read-path telemetry deltas. HedgeWasteBytes is the
	// hedge's extra registry egress: bytes the cancelled side moved
	// before it lost.
	BalancedReads   int64 `json:"balancedReads,omitempty"`
	HedgesFired     int64 `json:"hedgesFired,omitempty"`
	HedgesWon       int64 `json:"hedgesWon,omitempty"`
	HedgeWasteBytes int64 `json:"hedgeWasteBytes,omitempty"`
	// SlowShardReadShare is the fraction of measured reads the (eventual)
	// straggler shard served — the balancer should push it well under its
	// rank-order share once the shard slows down.
	SlowShardReadShare float64 `json:"slowShardReadShare"`
}

// ExtHedgeResult is the tail-latency-aware replica read experiment:
// {rank-order, balanced, balanced+hedged} × {healthy, one 10× straggler
// shard}, same object stream, fresh tier per cell.
type ExtHedgeResult struct {
	Shards          int    `json:"shards"`
	Replication     int    `json:"replication"`
	Objects         int    `json:"objects"`
	Rounds          int    `json:"rounds"`
	ReadsPerCell    int    `json:"readsPerCell"`
	StragglerFactor int    `json:"stragglerFactor"`
	SlowShard       string `json:"slowShard"`
	// JitterAmp is the deterministic per-node service jitter amplitude
	// every cell runs under (straggling is tail behaviour, so the
	// healthy baseline should not be perfectly smooth either).
	JitterAmp float64        `json:"jitterAmp"`
	Cells     []ExtHedgeCell `json:"cells"`
	// ParityOK: every cell pulled bit-identical client bytes.
	ParityOK bool `json:"parityOK"`
	// DegenerationOK: the "primary" cells showed zero balanced or hedged
	// activity and landed every read on the ring primary — the exact
	// rank-order path.
	DegenerationOK bool `json:"degenerationOK"`
	// P99Gain is the headline: straggler-condition p99 of the rank-order
	// policy over the balanced+hedged policy. BalancedP99Gain is the
	// same ratio for balancing alone.
	P99Gain         float64 `json:"p99Gain"`
	BalancedP99Gain float64 `json:"balancedP99Gain"`
	// WasteShare is the hedged straggler cell's extra egress relative to
	// its client bytes; WasteOK holds it under 5%.
	WasteShare float64 `json:"wasteShare"`
	WasteOK    bool    `json:"wasteOK"`
}

// Tier shape and measurement plan. The tier talks to readers over the
// paper's 20 Mbps edge class; the straggler runs at the fleet
// scenario's 10× service time.
const (
	extHedgeShards    = 4
	extHedgeReplicas  = 2
	extHedgeWANMbps   = 20
	extHedgeLANMbps   = 1000
	extHedgeRounds    = 6
	extHedgeFactor    = 10
	extHedgeJitterAmp = 0.1
)

// extHedgePolicies maps cell names to tier read options.
var extHedgePolicies = []struct {
	name string
	read shardreg.ReadOptions
}{
	{"primary", shardreg.ReadOptions{}},
	{"balanced", shardreg.ReadOptions{Balance: true}},
	{"hedged", shardreg.ReadOptions{Balance: true, Hedge: true}},
}

// extHedgeShuffle deterministically permutes idx in place (xorshift64,
// Fisher-Yates) so every round reads the objects in a fresh but
// replayable order.
func extHedgeShuffle(idx []int, seed uint64) {
	x := seed | 1
	for i := len(idx) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// extHedgePercentile returns the q-quantile of the (sorted-in-place)
// latency samples by nearest-rank.
func extHedgePercentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	i := int(q * float64(len(lats)-1))
	return lats[i]
}

// RunExtHedge replays one deterministic single-object read stream
// against {rank-order, balanced, balanced+hedged} read policies, healthy
// and with one shard at 10× service time. Balancing routes around the
// straggler once its latency is observed; hedging bounds the reads that
// still land on it. Client bytes stay bit-identical in every cell, the
// rank-order cells degenerate exactly to the pre-balancing path, and
// the hedge's extra egress stays a trace of the volume served.
func RunExtHedge(cfg Config) (*ExtHedgeResult, error) {
	if cfg.VersionsPerSeries <= 0 || cfg.VersionsPerSeries > 4 {
		cfg.VersionsPerSeries = 4
	}
	if cfg.SeriesPerCategory <= 0 || cfg.SeriesPerCategory > 2 {
		cfg.SeriesPerCategory = 2
	}
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	series := cfg.pickSeries(co)
	r, err := cfg.buildRig(co, series, false)
	if err != nil {
		return nil, err
	}
	fps := r.gear.Fingerprints()
	if len(fps) == 0 {
		return nil, fmt.Errorf("experiments: exthedge: empty gear pool")
	}

	res := &ExtHedgeResult{
		Shards:          extHedgeShards,
		Replication:     extHedgeReplicas,
		Objects:         len(fps),
		Rounds:          extHedgeRounds,
		ReadsPerCell:    extHedgeRounds * len(fps),
		StragglerFactor: extHedgeFactor,
		JitterAmp:       extHedgeJitterAmp,
		ParityOK:        true,
		DegenerationOK:  true,
	}

	// runCell replays the read stream against a fresh tier.
	runCell := func(read shardreg.ReadOptions, policy string, straggle bool) (ExtHedgeCell, error) {
		cell := ExtHedgeCell{Policy: policy, Straggler: straggle}
		topo, err := netsim.NewTopology(cfg.link(extHedgeWANMbps), cfg.link(extHedgeLANMbps))
		if err != nil {
			return cell, err
		}
		ids := make([]string, extHedgeShards)
		for i := range ids {
			ids[i] = fleet.ShardID(i)
		}
		read.Seed = uint64(cfg.Seed)
		cluster, err := shardreg.New(shardreg.Options{
			Shards:      ids,
			Replication: extHedgeReplicas,
			Compress:    true,
			Telemetry:   cfg.Telemetry,
			Topology:    topo,
			Read:        read,
		})
		if err != nil {
			return cell, err
		}
		if _, err := cluster.Seed(r.gear); err != nil {
			return cell, err
		}
		if err := topo.SetServiceJitter(uint64(cfg.Seed)+1, extHedgeJitterAmp); err != nil {
			return cell, err
		}
		// The straggler is the member carrying the most primary routes —
		// deterministic, so every cell slows the same shard.
		victim := cluster.BusiestShard()
		res.SlowShard = victim
		// Warm pass: a healthy read of every object primes the latency
		// EWMAs and the hedge clock, like the fleet's steady phase —
		// stragglers develop at runtime, they don't boot slow.
		for _, fp := range fps {
			if _, _, _, err := cluster.DownloadTimed(fp); err != nil {
				return cell, err
			}
		}
		if straggle {
			if err := topo.SetServiceFactor(victim, extHedgeFactor); err != nil {
				return cell, err
			}
		}
		before := cluster.Stats()

		idx := make([]int, len(fps))
		for i := range idx {
			idx[i] = i
		}
		lats := make([]time.Duration, 0, extHedgeRounds*len(fps))
		for round := 0; round < extHedgeRounds; round++ {
			extHedgeShuffle(idx, uint64(cfg.Seed)^uint64(round+1)*0x9e3779b97f4a7c15)
			for _, i := range idx {
				_, wire, lat, err := cluster.DownloadTimed(fps[i])
				if err != nil {
					return cell, err
				}
				cell.ClientBytes += wire
				lats = append(lats, lat)
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		cell.P50 = extHedgePercentile(lats, 0.50)
		cell.P95 = extHedgePercentile(lats, 0.95)
		cell.P99 = extHedgePercentile(lats, 0.99)

		after := cluster.Stats()
		cell.BalancedReads = after.BalancedReads - before.BalancedReads
		cell.HedgesFired = after.HedgesFired - before.HedgesFired
		cell.HedgesWon = after.HedgesWon - before.HedgesWon
		cell.HedgeWasteBytes = after.HedgeWasteBytes - before.HedgeWasteBytes
		reads := make(map[string]int64, len(after.Shards))
		for _, s := range after.Shards {
			reads[s.ID] = s.Reads
		}
		for _, s := range before.Shards {
			reads[s.ID] -= s.Reads
		}
		if total := after.Reads - before.Reads; total > 0 {
			cell.SlowShardReadShare = float64(reads[victim]) / float64(total)
		}

		// Degeneration: the rank-order cells must show zero read-path
		// routing activity and land every measured read on the ring
		// primary.
		if policy == "primary" {
			if cell.BalancedReads != 0 || cell.HedgesFired != 0 || cell.HedgeWasteBytes != 0 {
				res.DegenerationOK = false
			}
			primaries := make(map[string]int64, extHedgeShards)
			for _, fp := range fps {
				primaries[cluster.Replicas(fp)[0]] += extHedgeRounds
			}
			for id, n := range reads {
				if n != primaries[id] {
					res.DegenerationOK = false
				}
			}
		}
		return cell, nil
	}

	for _, pol := range extHedgePolicies {
		for _, straggle := range []bool{false, true} {
			cell, err := runCell(pol.read, pol.name, straggle)
			if err != nil {
				return nil, err
			}
			if len(res.Cells) > 0 && cell.ClientBytes != res.Cells[0].ClientBytes {
				res.ParityOK = false
			}
			res.Cells = append(res.Cells, cell)
		}
	}

	// Headline ratios: straggler-condition p99, rank-order over balanced
	// and over balanced+hedged; hedge waste relative to client volume.
	cellAt := func(policy string, straggle bool) *ExtHedgeCell {
		for i := range res.Cells {
			if res.Cells[i].Policy == policy && res.Cells[i].Straggler == straggle {
				return &res.Cells[i]
			}
		}
		return nil
	}
	rank, bal, hedge := cellAt("primary", true), cellAt("balanced", true), cellAt("hedged", true)
	if hedge.P99 > 0 {
		res.P99Gain = float64(rank.P99) / float64(hedge.P99)
	}
	if bal.P99 > 0 {
		res.BalancedP99Gain = float64(rank.P99) / float64(bal.P99)
	}
	if hedge.ClientBytes > 0 {
		res.WasteShare = float64(hedge.HedgeWasteBytes) / float64(hedge.ClientBytes)
	}
	res.WasteOK = res.WasteShare < 0.05
	return res, nil
}

// Print renders the policy × straggler latency table.
func (r *ExtHedgeResult) Print(w io.Writer) {
	fmt.Fprintf(w, "replica reads: %d shards, replication %d, %d objects × %d rounds, straggler %s at %dx\n",
		r.Shards, r.Replication, r.Objects, r.Rounds, r.SlowShard, r.StragglerFactor)
	fmt.Fprintf(w, "%-9s %-9s %10s %10s %10s %9s %7s %6s %10s %10s\n",
		"policy", "straggler", "p50", "p95", "p99", "balanced", "hedges", "won", "waste", "slow share")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(w, "%-9s %-9v %10s %10s %10s %9d %7d %6d %10s %10.3f\n",
			c.Policy, c.Straggler,
			c.P50.Round(time.Millisecond), c.P95.Round(time.Millisecond), c.P99.Round(time.Millisecond),
			c.BalancedReads, c.HedgesFired, c.HedgesWon, mb(c.HedgeWasteBytes), c.SlowShardReadShare)
	}
	fmt.Fprintf(w, "straggler p99: rank-order/balanced %.1fx, rank-order/hedged %.1fx\n",
		r.BalancedP99Gain, r.P99Gain)
	fmt.Fprintf(w, "hedge extra egress: %.2f%% of client bytes (ok=%v); parity %v, rank-order degeneration %v\n",
		r.WasteShare*100, r.WasteOK, r.ParityOK, r.DegenerationOK)
}
