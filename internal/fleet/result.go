package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/telemetry"
)

// PhaseResult is one scenario phase's accounting: the fleet activity it
// scripted, the traffic each link class carried, and the fleet-wide
// telemetry diff over the phase, identical across runs of the same
// (scenario, seed).
type PhaseResult struct {
	Name     string `json:"name"`
	Joins    int64  `json:"joins,omitempty"`
	Leaves   int64  `json:"leaves,omitempty"`
	Deploys  int64  `json:"deploys,omitempty"`
	Reads    int64  `json:"reads,omitempty"`
	Destroys int64  `json:"destroys,omitempty"`
	// DeployTime sums the phase's deployment virtual times; MeanDeploy
	// and MaxDeploy summarize the distribution.
	DeployTime time.Duration `json:"deployTime"`
	MeanDeploy time.Duration `json:"meanDeploy"`
	MaxDeploy  time.Duration `json:"maxDeploy"`
	// WAN is the registry egress the phase cost; LAN is what the
	// cluster absorbed peer-to-peer instead. ShardWAN is the sharded
	// registry tier's own inter-shard/service traffic for the phase
	// (zero when the run has no shard tier).
	WAN      netsim.Stats `json:"wan"`
	LAN      netsim.Stats `json:"lan"`
	ShardWAN netsim.Stats `json:"shardWAN,omitzero"`
	// Telemetry is the fleet-wide snapshot diff.
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

// ChurnRound records one churn round's schedule — the seed-determined
// leave and rejoin sets, in execution order.
type ChurnRound struct {
	Leave  []string `json:"leave,omitempty"`
	Rejoin []string `json:"rejoin,omitempty"`
}

// Result is one scenario run's full accounting.
type Result struct {
	Scenario string        `json:"scenario"`
	Seed     int64         `json:"seed"`
	Nodes    int           `json:"nodes"`
	Peers    bool          `json:"peers"`
	Phases   []PhaseResult `json:"phases"`
	// Shards/Replication describe the registry tier backing the run
	// (0 = single-node registry); KilledShard is the member the sharded
	// failover scenario killed; SlowShard the member the straggler
	// scenario ran at 10x service time.
	Shards      int    `json:"shards,omitempty"`
	Replication int    `json:"replication,omitempty"`
	KilledShard string `json:"killedShard,omitempty"`
	SlowShard   string `json:"slowShard,omitempty"`
	// Churn is the churn scenario's schedule (empty otherwise).
	Churn []ChurnRound `json:"churn,omitempty"`
	// Fleet-wide totals across all phases.
	TotalDeploys int64         `json:"totalDeploys"`
	WANBytes     int64         `json:"wanBytes"`
	LANBytes     int64         `json:"lanBytes"`
	PeerObjects  int64         `json:"peerObjects"`
	MeanDeploy   time.Duration `json:"meanDeploy"`
	MaxDeploy    time.Duration `json:"maxDeploy"`
}

// finish derives the run-level totals from the completed phases. Totals
// are sums of per-phase diffs, never absolute registry reads, so they
// stay correct when several harnesses share one telemetry registry
// (cmd/benchreport's whole-sweep snapshot).
func (r *Result) finish() {
	var deployNS time.Duration
	for i := range r.Phases {
		p := &r.Phases[i]
		r.TotalDeploys += p.Deploys
		r.WANBytes += p.WAN.Bytes
		r.LANBytes += p.LAN.Bytes
		r.PeerObjects += p.Telemetry.Counter("store.peer.objects")
		deployNS += p.DeployTime
		if p.MaxDeploy > r.MaxDeploy {
			r.MaxDeploy = p.MaxDeploy
		}
	}
	if r.TotalDeploys > 0 {
		r.MeanDeploy = deployNS / time.Duration(r.TotalDeploys)
	}
}

// Canonical returns the result's deterministic JSON form (map keys
// sort, so two bit-identical runs marshal to identical bytes).
func (r *Result) Canonical() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Fingerprint returns a short hash of the canonical form — the value
// replay checks compare.
func (r *Result) Fingerprint() (string, error) {
	data, err := r.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// Print renders the per-phase table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "scenario %s: %d nodes, seed %d, peers=%v\n",
		r.Scenario, r.Nodes, r.Seed, r.Peers)
	fmt.Fprintf(w, "%-10s %6s %6s %8s %6s %8s %12s %12s %12s %12s\n",
		"phase", "joins", "leaves", "deploys", "reads", "destroys",
		"wan bytes", "lan bytes", "mean deploy", "max deploy")
	for i := range r.Phases {
		p := &r.Phases[i]
		fmt.Fprintf(w, "%-10s %6d %6d %8d %6d %8d %12d %12d %12s %12s\n",
			p.Name, p.Joins, p.Leaves, p.Deploys, p.Reads, p.Destroys,
			p.WAN.Bytes, p.LAN.Bytes,
			p.MeanDeploy.Round(time.Microsecond),
			p.MaxDeploy.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "total: %d deploys, %d WAN bytes, %d LAN bytes, %d peer-served objects, mean deploy %s\n",
		r.TotalDeploys, r.WANBytes, r.LANBytes, r.PeerObjects,
		r.MeanDeploy.Round(time.Microsecond))
	for _, round := range r.Churn {
		fmt.Fprintf(w, "churn: -%d +%d nodes\n", len(round.Leave), len(round.Rejoin))
	}
}
