package fleet

import (
	"errors"
	"fmt"
	"time"

	"github.com/gear-image/gear/internal/netsim"
)

// Kind names a scripted scenario.
type Kind string

// The scripted scenarios.
const (
	// FlashCrowd: one seed node deploys the newest version from the
	// registry, then the rest of the fleet joins and deploys the same
	// version in a random order — a rollout wavefront where (with peers
	// on) almost every byte should come off the cluster LAN.
	FlashCrowd Kind = "flashcrowd"
	// Churn: a full-fleet baseline rollout, then rounds of random
	// leaves and cold-cache rejoins while the surviving fleet rolls
	// forward one version per round.
	Churn Kind = "churn"
	// Failover: a steady rollout, a rollout under a degraded registry,
	// and a rollout after recovery. Against a single-node registry the
	// degradation is a 10x-throttled WAN (failing over to a throttled
	// mirror); against a sharded tier (Options.Shards) one shard is
	// killed outright and its replicas absorb the traffic — every deploy
	// must still complete with zero failed fetches.
	Failover Kind = "failover"
	// Mixed: everyone deploys the first version; a random half then
	// acts as long-running services (request loops against the deployed
	// container) while the other half runs short-lived jobs (deploy the
	// newest version, then destroy).
	Mixed Kind = "mixed"
	// Straggler: a steady rollout, a rollout while the busiest shard
	// serves at 10x its nominal service time (no failures — the shard
	// stays live and correct, just slow), and a rollout after it
	// recovers. Requires a sharded tier (Options.Shards); whether the
	// slow phase hurts depends on Options.ReadBalance/ReadHedge.
	Straggler Kind = "straggler"
)

// kinds lists every scenario in canonical order.
func kinds() []Kind { return []Kind{FlashCrowd, Churn, Failover, Mixed, Straggler} }

// ErrUnknownScenario reports an unrecognized scenario kind.
var ErrUnknownScenario = errors.New("unknown scenario")

// churnRounds is the number of leave/rejoin rounds the churn scenario
// runs after its baseline rollout.
const churnRounds = 3

// Run executes the scenario against an empty fleet and returns its
// per-phase accounting. A harness is single-use: the second Run reports
// ErrAlreadyRun (node and telemetry state is cumulative, so re-running
// would not start from the documented initial conditions).
func (h *Harness) Run(kind Kind) (*Result, error) {
	h.mu.Lock()
	if h.ran {
		h.mu.Unlock()
		return nil, fmt.Errorf("fleet: run %s: %w", kind, ErrAlreadyRun)
	}
	h.ran = true
	h.mu.Unlock()

	res := &Result{
		Scenario:    string(kind),
		Seed:        h.opts.Seed,
		Nodes:       h.opts.Nodes,
		Peers:       h.opts.Peers,
		Shards:      h.opts.Shards,
		Replication: h.opts.Replication,
	}
	if h.cluster == nil {
		res.Replication = 0
	}
	var err error
	switch kind {
	case FlashCrowd:
		err = h.runFlashCrowd(res)
	case Churn:
		err = h.runChurn(res)
	case Failover:
		err = h.runFailover(res)
	case Mixed:
		err = h.runMixed(res)
	case Straggler:
		err = h.runStraggler(res)
	default:
		return nil, fmt.Errorf("fleet: %q: %w", kind, ErrUnknownScenario)
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// Phase runs fn as one accounted phase: its telemetry diff, link
// deltas, deploy count and deploy-time extrema land in one PhaseResult,
// and a span summarizing the phase is recorded into the harness ring. A
// failing fn's error is returned, wrapped with the phase name.
func (h *Harness) Phase(name string, fn func() error) (PhaseResult, error) {
	before := h.Snapshot()
	wanBefore, lanBefore := h.topo.WANStats(), h.topo.LANStats()
	var shardBefore netsim.Stats
	if h.shardTopo != nil {
		shardBefore = h.shardTopo.WANStats()
	}
	h.mu.Lock()
	h.maxDeploy = 0
	h.mu.Unlock()

	if err := fn(); err != nil {
		return PhaseResult{}, fmt.Errorf("fleet: %s: %w", name, err)
	}

	diff := h.Snapshot().Diff(before)
	h.mu.Lock()
	maxDeploy := h.maxDeploy
	h.mu.Unlock()
	p := PhaseResult{
		Name:       name,
		Joins:      diff.Counter("fleet.joins"),
		Leaves:     diff.Counter("fleet.leaves"),
		Deploys:    diff.Counter("fleet.deploys"),
		Reads:      diff.Counter("fleet.reads"),
		Destroys:   diff.Counter("fleet.destroys"),
		DeployTime: time.Duration(diff.Counter("fleet.deploy.virtual.ns")),
		MaxDeploy:  maxDeploy,
		WAN:        h.topo.WANStats().Sub(wanBefore),
		LAN:        h.topo.LANStats().Sub(lanBefore),
		Telemetry:  diff,
	}
	if h.shardTopo != nil {
		p.ShardWAN = h.shardTopo.WANStats().Sub(shardBefore)
	}
	if p.Deploys > 0 {
		p.MeanDeploy = p.DeployTime / time.Duration(p.Deploys)
	}
	return p, nil
}

// phase runs one scenario phase through Phase, named "<scenario>/<name>"
// in its span and error, and appends its result under name.
func (h *Harness) phase(res *Result, name string, fn func() error) error {
	p, err := h.Phase(res.Scenario+"/"+name, fn)
	if err != nil {
		return err
	}
	p.Name = name
	res.Phases = append(res.Phases, p)
	return nil
}

// joinPhase is the opening phase of every scenario but the flash crowd:
// nodes 0..Nodes-1 join in order, then each deploys the first version.
func (h *Harness) joinPhase(res *Result, name string) error {
	return h.phase(res, name, func() error {
		if err := h.joinAll(0); err != nil {
			return err
		}
		return h.deployAll(0)
	})
}

// joinAll joins nodes from..Nodes-1 in order.
func (h *Harness) joinAll(from int) error {
	for i := from; i < h.opts.Nodes; i++ {
		if err := h.Join(NodeID(i)); err != nil {
			return err
		}
	}
	return nil
}

// deployAll deploys version v on every attached node in attachment order.
func (h *Harness) deployAll(v int) error {
	for _, id := range h.Active() {
		if _, err := h.Deploy(id, v); err != nil {
			return err
		}
	}
	return nil
}

// latest returns the newest workload version index.
func (h *Harness) latest() int { return len(h.series.Tags) - 1 }

// clampVersion bounds v to the published version range.
func (h *Harness) clampVersion(v int) int {
	if last := h.latest(); v > last {
		return last
	}
	return v
}

func (h *Harness) runFlashCrowd(res *Result) error {
	last := h.latest()
	if err := h.phase(res, "seed", func() error {
		if err := h.Join(NodeID(0)); err != nil {
			return err
		}
		_, err := h.Deploy(NodeID(0), last)
		return err
	}); err != nil {
		return err
	}
	return h.phase(res, "crowd", func() error {
		if err := h.joinAll(1); err != nil {
			return err
		}
		// The crowd arrives in random order — the seeded permutation is
		// the scenario's schedule.
		for _, i := range h.rng.Perm(h.opts.Nodes - 1) {
			if _, err := h.Deploy(NodeID(i+1), last); err != nil {
				return err
			}
		}
		return nil
	})
}

func (h *Harness) runChurn(res *Result) error {
	if err := h.joinPhase(res, "baseline"); err != nil {
		return err
	}
	var gone []string
	for r := 1; r <= churnRounds; r++ {
		round := ChurnRound{}
		err := h.phase(res, fmt.Sprintf("round%d", r), func() error {
			// A random quarter of the fleet leaves...
			active := h.Active()
			quit := len(active) / 4
			if quit == 0 && len(active) > 1 {
				quit = 1
			}
			perm := h.rng.Perm(len(active))
			for _, pi := range perm[:quit] {
				id := active[pi]
				if err := h.Leave(id); err != nil {
					return err
				}
				round.Leave = append(round.Leave, id)
			}
			gone = append(gone, round.Leave...)
			// ...and half of everyone currently gone rejoins, cold.
			back := len(gone) / 2
			round.Rejoin = append(round.Rejoin, gone[:back]...)
			gone = gone[back:]
			for _, id := range round.Rejoin {
				if err := h.Join(id); err != nil {
					return err
				}
			}
			// The surviving fleet rolls forward one version.
			return h.deployAll(h.clampVersion(r))
		})
		if err != nil {
			return err
		}
		res.Churn = append(res.Churn, round)
	}
	return nil
}

// runFailover degrades the registry for the middle rollout. A sharded
// tier loses one shard outright — the one carrying the most primary
// routes, the worst single-member loss — and deploys must complete from
// the surviving replicas; a single-node registry fails over to a mirror
// behind a 10x-throttled WAN.
func (h *Harness) runFailover(res *Result) error {
	if h.cluster != nil {
		return h.runFault(res, "degraded", func() error {
			res.KilledShard = h.cluster.BusiestShard()
			return h.cluster.KillShard(res.KilledShard)
		}, func() error { return h.cluster.ReviveShard(res.KilledShard) })
	}
	healthy := h.topo.WANConfig()
	degraded := healthy
	degraded.BytesPerSecond /= 10
	return h.runFault(res, "degraded",
		func() error { return h.topo.SetWANConfig(degraded) },
		func() error { return h.topo.SetWANConfig(healthy) })
}

// stragglerFactor is the service slowdown the straggler scenario
// applies to the busiest shard — the 10x slow node of the tail-latency
// literature.
const stragglerFactor = 10

// runStraggler is failover's latency-side sibling: nothing dies, but
// the shard carrying the most primary routes serves at stragglerFactor
// its nominal service time for the middle rollout. Rank-order reads eat
// the full slowdown on every object the straggler owns; balanced or
// hedged reads should keep the slow phase close to the steady one.
func (h *Harness) runStraggler(res *Result) error {
	if h.cluster == nil {
		return fmt.Errorf("fleet: straggler scenario needs a sharded tier (Options.Shards): %w", ErrBadFleet)
	}
	return h.runFault(res, "slow", func() error {
		res.SlowShard = h.cluster.BusiestShard()
		return h.shardTopo.SetServiceFactor(res.SlowShard, stragglerFactor)
	}, func() error { return h.shardTopo.SetServiceFactor(res.SlowShard, 1) })
}

// runFault is the body failover and straggler share: the whole fleet
// joins and deploys the first version ("steady"), inject runs and the
// fleet rolls forward one version (the faulted phase), then heal runs
// and it rolls forward again ("recovered").
func (h *Harness) runFault(res *Result, faulted string, inject, heal func() error) error {
	if err := h.joinPhase(res, "steady"); err != nil {
		return err
	}
	if err := h.phase(res, faulted, func() error {
		if err := inject(); err != nil {
			return err
		}
		return h.deployAll(h.clampVersion(1))
	}); err != nil {
		return err
	}
	return h.phase(res, "recovered", func() error {
		if err := heal(); err != nil {
			return err
		}
		return h.deployAll(h.clampVersion(2))
	})
}

// mixedReadsPerService is the request-loop depth of each long-running
// service in the mixed scenario.
const mixedReadsPerService = 4

func (h *Harness) runMixed(res *Result) error {
	if err := h.joinPhase(res, "rollout"); err != nil {
		return err
	}
	// A seeded permutation splits the fleet: the first half serves, the
	// second half cycles short-lived jobs.
	perm := h.rng.Perm(h.opts.Nodes)
	long, short := perm[:h.opts.Nodes/2], perm[h.opts.Nodes/2:]
	if err := h.phase(res, "longrun", func() error {
		paths := h.series.Access[0]
		for _, i := range long {
			for r := 0; r < mixedReadsPerService; r++ {
				if _, err := h.Read(NodeID(i), paths[h.rng.Intn(len(paths))]); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return h.phase(res, "shortrun", func() error {
		last := h.latest()
		for _, i := range short {
			if _, err := h.Deploy(NodeID(i), last); err != nil {
				return err
			}
			if _, err := h.DestroyLast(NodeID(i)); err != nil {
				return err
			}
		}
		return nil
	})
}
