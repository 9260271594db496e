package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/telemetry"
)

var (
	wlOnce sync.Once
	wlErr  error
	testWL *Workload
)

// testWorkload builds the shared quick-scale workload once per test
// binary. The workload is read-only after construction, so harnesses
// (and parallel tests) can share it.
func testWorkload(t *testing.T) *Workload {
	t.Helper()
	wlOnce.Do(func() {
		testWL, wlErr = BuildWorkload(WorkloadOptions{})
	})
	if wlErr != nil {
		t.Fatalf("BuildWorkload: %v", wlErr)
	}
	return testWL
}

// twoSeries publishes a small two-series, two-version workload.
func twoSeries(t *testing.T) (*corpus.Corpus, *Workload) {
	t.Helper()
	co, err := corpus.New(corpus.Options{
		Seed:         7,
		Scale:        0.05,
		SeriesFilter: []string{"nginx", "redis"},
		MaxVersions:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := Publish(co, co.Series(), 0.05)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return co, wl
}

// TestPublishSeries: a two-series workload records, per series, the
// corpus's access lists and task compute, and a joined node deploys a
// version of the second series from it.
func TestPublishSeries(t *testing.T) {
	co, wl := twoSeries(t)
	if len(wl.Series) != 2 {
		t.Fatalf("published %d series, want 2", len(wl.Series))
	}
	for _, s := range wl.Series {
		if len(s.Access) != len(s.Tags) || len(s.Tags) != 2 {
			t.Fatalf("%s: %d access lists for %d tags, want 2 each", s.Name, len(s.Access), len(s.Tags))
		}
		for v := range s.Tags {
			items, err := co.NecessarySet(s.Name, v)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(items))
			for i, it := range items {
				want[i] = it.Path
			}
			if !reflect.DeepEqual(s.Access[v], want) {
				t.Errorf("%s v%d: access list differs from corpus.NecessarySet", s.Name, v)
			}
		}
		if compute, err := co.TaskCompute(s.Name); err != nil || s.Compute != compute {
			t.Errorf("%s: compute %v, want %v (%v)", s.Name, s.Compute, compute, err)
		}
	}

	h, err := New(wl, Options{Nodes: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Join(NodeID(0)); err != nil {
		t.Fatal(err)
	}
	d, _ := h.daemon(NodeID(0))
	s := &wl.Series[1]
	dep, err := d.DeployGear(s.Ref, s.Tags[1], s.Access[1], s.Compute)
	if err != nil {
		t.Fatalf("deploy %s:%s: %v", s.Ref, s.Tags[1], err)
	}
	if dep.Pull.Bytes+dep.Run.Bytes == 0 {
		t.Errorf("deploy of %s:%s moved no bytes", s.Ref, s.Tags[1])
	}
}

// runScenario builds a fresh harness and runs one scenario, returning
// the result and the final fleet snapshot. The straggler
// scenario gets the sharded tier it requires.
func runScenario(t *testing.T, kind Kind, nodes int, seed int64) (*Result, telemetry.Snapshot) {
	t.Helper()
	opts := Options{Nodes: nodes, Seed: seed, Peers: true}
	if kind == Straggler {
		opts.Shards = 4
		opts.ReadBalance = true
		opts.ReadHedge = true
	}
	h, err := New(testWorkload(t), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := h.Run(kind)
	if err != nil {
		t.Fatalf("Run(%s): %v", kind, err)
	}
	return res, h.Snapshot()
}

// TestScenarioDeterminism is the replay golden test: the same
// (scenario, seed) must reproduce bit-identical results and telemetry
// snapshots, run to run, for every scenario kind — the demand-stall
// histogram included, since the stall is the price netsim charged.
func TestScenarioDeterminism(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			res1, snap1 := runScenario(t, kind, 16, 42)
			res2, snap2 := runScenario(t, kind, 16, 42)
			if st := snap1.Histograms["store.demand.stall"]; st.Count == 0 || st.Sum == 0 {
				t.Errorf("no demand stall observed: %+v", st)
			}

			j1, err := res1.Canonical()
			if err != nil {
				t.Fatalf("Canonical: %v", err)
			}
			j2, err := res2.Canonical()
			if err != nil {
				t.Fatalf("Canonical: %v", err)
			}
			if !bytes.Equal(j1, j2) {
				t.Errorf("same (scenario, seed) produced different results:\n--- run 1\n%s\n--- run 2\n%s", j1, j2)
			}
			if !reflect.DeepEqual(snap1, snap2) {
				t.Errorf("same (scenario, seed) produced different telemetry snapshots:\nrun 1: %+v\nrun 2: %+v", snap1, snap2)
			}
			fp1, err := res1.Fingerprint()
			if err != nil {
				t.Fatalf("Fingerprint: %v", err)
			}
			fp2, _ := res2.Fingerprint()
			if fp1 != fp2 {
				t.Errorf("fingerprints differ: %s vs %s", fp1, fp2)
			}

			// Every phase diff must be structurally valid, and the phase
			// diffs carry the whole run's demand stall between them.
			var stall int64
			for _, p := range res1.Phases {
				if err := p.Telemetry.Validate(); err != nil {
					t.Errorf("phase %s: %v", p.Name, err)
				}
				stall += p.Telemetry.Counter("store.demand.stall.ns")
			}
			if want := snap1.Counter("store.demand.stall.ns"); stall != want {
				t.Errorf("phase diffs carry %d ns of demand stall, the run %d", stall, want)
			}
		})
	}
}

// TestChurnSeedSensitivity checks the other half of the replay
// contract: a different seed draws a different churn schedule.
func TestChurnSeedSensitivity(t *testing.T) {
	res1, _ := runScenario(t, Churn, 16, 1)
	res2, _ := runScenario(t, Churn, 16, 2)
	s1, err := json.Marshal(res1.Churn)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := json.Marshal(res2.Churn)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1, s2) {
		t.Errorf("seeds 1 and 2 drew the identical churn schedule: %s", s1)
	}
	if len(res1.Churn) != churnRounds {
		t.Errorf("churn recorded %d rounds, want %d", len(res1.Churn), churnRounds)
	}
}

// TestScenarioAccounting sanity-checks the flash-crowd phase economics:
// with peers on, the crowd phase should source most content over the
// LAN, and the totals must reconcile with the topology.
func TestScenarioAccounting(t *testing.T) {
	res, snap := runScenario(t, FlashCrowd, 16, 7)
	if res.TotalDeploys != 16 {
		t.Errorf("TotalDeploys = %d, want 16", res.TotalDeploys)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d, want 2 (seed, crowd)", len(res.Phases))
	}
	seed, crowd := res.Phases[0], res.Phases[1]
	if seed.Deploys != 1 || crowd.Deploys != 15 {
		t.Errorf("phase deploys = %d/%d, want 1/15", seed.Deploys, crowd.Deploys)
	}
	if seed.LAN.Bytes != 0 {
		t.Errorf("seed phase moved %d LAN bytes with no peers present", seed.LAN.Bytes)
	}
	if crowd.LAN.Bytes == 0 {
		t.Error("crowd phase moved no LAN bytes despite peers")
	}
	if res.PeerObjects == 0 {
		t.Error("no objects served peer-to-peer in a flash crowd")
	}
	// The crowd should cost the registry far less than 15 cold pulls:
	// each Gear file leaves the registry roughly once.
	if crowd.WAN.Bytes > seed.WAN.Bytes*15/2 {
		t.Errorf("crowd WAN egress %d not materially below 15 cold pulls (seed pull was %d)",
			crowd.WAN.Bytes, seed.WAN.Bytes)
	}
	if got := seed.WAN.Bytes + crowd.WAN.Bytes; got != res.WANBytes {
		t.Errorf("phase WAN bytes sum %d != run total %d", got, res.WANBytes)
	}
	if snap.Gauge("fleet.nodes") != 16 {
		t.Errorf("fleet.nodes gauge = %d, want 16", snap.Gauge("fleet.nodes"))
	}
}

// TestPhaseAccountsRollout pins the contract experiments read from a
// Phase: on a plain and on a 2-shard harness, N nodes join and Rollout
// inside one phase, and its deploy count, mean deploy time, client WAN
// bytes, shard-tier bytes and per-shard read counters all agree with the
// links and the tier they summarize. A failing phase returns its error.
func TestPhaseAccountsRollout(t *testing.T) {
	const nodes = 3
	_, wl := twoSeries(t)
	versions := 0
	for _, s := range wl.Series {
		versions += len(s.Tags)
	}
	for _, shards := range []int{0, 2} {
		h, err := New(wl, Options{Nodes: nodes, Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		linkBytes := func(topo *netsim.Topology, ids []string) int64 {
			var n int64
			for _, id := range ids {
				n += topo.Node(id).WAN.Stats().Bytes
			}
			return n
		}
		var shardIDs []string
		var shardBefore, tierReadsBefore int64
		if shards > 0 {
			shardIDs = h.Cluster().Shards()
			shardBefore = linkBytes(h.ShardTopology(), shardIDs)
			tierReadsBefore = h.Cluster().Stats().Reads
		}
		p, err := h.Phase("rollout", func() error {
			for i := 0; i < nodes; i++ {
				if err := h.Join(NodeID(i)); err != nil {
					return err
				}
			}
			for i := 0; i < nodes; i++ {
				if err := h.Rollout(NodeID(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%d shards: Phase: %v", shards, err)
		}
		if want := int64(nodes * versions); p.Deploys != want {
			t.Errorf("%d shards: Deploys = %d, want %d", shards, p.Deploys, want)
		}
		if p.DeployTime == 0 || p.MeanDeploy != p.DeployTime/time.Duration(p.Deploys) {
			t.Errorf("%d shards: MeanDeploy %v, DeployTime %v over %d deploys", shards, p.MeanDeploy, p.DeployTime, p.Deploys)
		}
		if got := linkBytes(h.Topology(), h.Active()); p.WAN.Bytes == 0 || p.WAN.Bytes != got {
			t.Errorf("%d shards: WAN.Bytes = %d, node links carried %d", shards, p.WAN.Bytes, got)
		}
		if shards == 0 {
			if p.ShardWAN != (netsim.Stats{}) {
				t.Errorf("unsharded phase reports shard traffic %+v", p.ShardWAN)
			}
			continue
		}
		if got := linkBytes(h.ShardTopology(), shardIDs) - shardBefore; p.ShardWAN.Bytes == 0 || p.ShardWAN.Bytes != got {
			t.Errorf("ShardWAN.Bytes = %d, shard links carried %d", p.ShardWAN.Bytes, got)
		}
		var reads int64
		for _, id := range shardIDs {
			reads += p.Telemetry.Counter("shardreg.shard." + id + ".reads")
		}
		if want := h.Cluster().Stats().Reads - tierReadsBefore; reads == 0 || reads != want {
			t.Errorf("per-shard reads sum to %d, tier served %d", reads, want)
		}
	}

	h, err := New(wl, Options{Nodes: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Phase("bad", func() error { return h.Rollout("ghost") }); !errors.Is(err, netsim.ErrUnknownNode) {
		t.Errorf("failing phase = %v, want ErrUnknownNode", err)
	}
}

// TestHarnessTypedErrors drives every misuse path to its sentinel.
func TestHarnessTypedErrors(t *testing.T) {
	wl := testWorkload(t)
	if _, err := New(wl, Options{Nodes: 0}); !errors.Is(err, ErrBadFleet) {
		t.Errorf("New(0 nodes) = %v, want ErrBadFleet", err)
	}
	if _, err := New(nil, Options{Nodes: 1}); !errors.Is(err, ErrBadFleet) {
		t.Errorf("New(nil workload) = %v, want ErrBadFleet", err)
	}

	h, err := New(wl, Options{Nodes: 4, Seed: 1, Peers: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(Kind("thundering-herd")); !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("Run(bogus) = %v, want ErrUnknownScenario", err)
	}
	if err := h.Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := h.Join("a"); !errors.Is(err, ErrAlreadyJoined) {
		t.Errorf("double Join = %v, want ErrAlreadyJoined", err)
	}
	if _, err := h.Deploy("ghost", 0); !errors.Is(err, netsim.ErrUnknownNode) {
		t.Errorf("Deploy(ghost) = %v, want ErrUnknownNode", err)
	}
	if err := h.Leave("ghost"); !errors.Is(err, netsim.ErrUnknownNode) {
		t.Errorf("Leave(ghost) = %v, want ErrUnknownNode", err)
	}
	if _, err := h.Deploy("a", 99); !errors.Is(err, ErrBadFleet) {
		t.Errorf("Deploy(v99) = %v, want ErrBadFleet", err)
	}
	if _, err := h.Read("a", "x"); !errors.Is(err, dockersim.ErrNotDeployed) {
		t.Errorf("Read before deploy = %v, want ErrNotDeployed", err)
	}
	if _, err := h.DestroyLast("a"); !errors.Is(err, dockersim.ErrNotDeployed) {
		t.Errorf("DestroyLast before deploy = %v, want ErrNotDeployed", err)
	}

	// A daemon handle kept across a Leave sees its links closed: deploys
	// report the detachment instead of pricing traffic on a dead link.
	d, ok := h.daemon("a")
	if !ok {
		t.Fatal("Daemon(a) not found")
	}
	if err := h.Leave("a"); err != nil {
		t.Fatal(err)
	}
	s := &wl.Series[0]
	if _, err := d.DeployGear(s.Ref, s.Tags[0], s.Access[0], s.Compute); !errors.Is(err, dockersim.ErrDetached) {
		t.Errorf("deploy on departed daemon = %v, want ErrDetached", err)
	}
	if _, err := d.DeployGear(s.Ref, s.Tags[0], s.Access[0], s.Compute); !errors.Is(err, netsim.ErrLinkClosed) {
		t.Errorf("ErrDetached does not wrap netsim.ErrLinkClosed: %v", err)
	}

	// After a rejoin the same id deploys again.
	if err := h.Join("a"); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if _, err := h.Deploy("a", 0); err != nil {
		t.Fatalf("deploy after rejoin: %v", err)
	}
}

// TestRunSingleUse pins the harness lifecycle: one scenario per
// harness.
func TestRunSingleUse(t *testing.T) {
	h, err := New(testWorkload(t), Options{Nodes: 2, Seed: 3, Peers: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(FlashCrowd); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(FlashCrowd); !errors.Is(err, ErrAlreadyRun) {
		t.Errorf("second Run = %v, want ErrAlreadyRun", err)
	}
}

// TestFailoverDegradesDeploys checks the failover scenario's shape: the
// degraded phase's deployments are slower than steady state, and
// recovery restores them.
func TestFailoverDegradesDeploys(t *testing.T) {
	res, _ := runScenario(t, Failover, 8, 11)
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(res.Phases))
	}
	steady, degraded, recovered := res.Phases[0], res.Phases[1], res.Phases[2]
	if degraded.MeanDeploy <= recovered.MeanDeploy {
		t.Errorf("degraded mean deploy %v not above recovered %v",
			degraded.MeanDeploy, recovered.MeanDeploy)
	}
	// Steady state includes the cold first pull, so compare per-phase
	// WAN elapsed instead: degraded pays 10x per byte.
	if steady.WAN.Bytes > 0 && degraded.WAN.Bytes > 0 {
		steadyRate := float64(steady.WAN.Elapsed) / float64(steady.WAN.Bytes)
		degradedRate := float64(degraded.WAN.Elapsed) / float64(degraded.WAN.Bytes)
		if degradedRate < steadyRate*2 {
			t.Errorf("degraded WAN %.2fx steady cost per byte, want >= 2x",
				degradedRate/steadyRate)
		}
	}
}

// TestMixedWorkload checks the mixed scenario splits the fleet and
// accounts both halves.
func TestMixedWorkload(t *testing.T) {
	res, _ := runScenario(t, Mixed, 10, 5)
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(res.Phases))
	}
	longrun, shortrun := res.Phases[1], res.Phases[2]
	if want := int64(5 * mixedReadsPerService); longrun.Reads != want {
		t.Errorf("longrun reads = %d, want %d", longrun.Reads, want)
	}
	if longrun.Telemetry.Counter("fleet.read.bytes") == 0 {
		t.Error("longrun phase read zero bytes")
	}
	if shortrun.Deploys != 5 || shortrun.Destroys != 5 {
		t.Errorf("shortrun deploys/destroys = %d/%d, want 5/5",
			shortrun.Deploys, shortrun.Destroys)
	}
}

// TestShardedFailover: with the fleet backed by a replicated shard tier,
// the failover scenario kills one shard — every deploy must complete
// from the surviving replicas (zero failed fetches), each node must pull
// byte-for-byte what it pulls from a single-node registry, and the run
// must stay bit-reproducible.
func TestShardedFailover(t *testing.T) {
	run := func(shards int, seed int64) (*Result, *Harness) {
		t.Helper()
		h, err := New(testWorkload(t), Options{Nodes: 8, Seed: seed, Peers: true, Shards: shards})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := h.Run(Failover)
		if err != nil {
			t.Fatalf("Run(failover, %d shards): %v", shards, err)
		}
		return res, h
	}

	sharded, hs := run(3, 11)
	if c := hs.Cluster(); c == nil || len(c.Replicas(hashing.FingerprintBytes(nil))) != 2 {
		t.Fatal("sharded harness did not build a replication-2 tier")
	}
	if sharded.Shards != 3 || sharded.Replication != 2 {
		t.Fatalf("result reports %d shards / %d replicas", sharded.Shards, sharded.Replication)
	}
	if sharded.KilledShard == "" {
		t.Fatal("failover killed no shard")
	}
	// Zero failed fetches: every phase deployed the whole fleet (a
	// failed fetch fails the deploy, which fails Run outright).
	for _, p := range sharded.Phases {
		if p.Deploys != 8 {
			t.Fatalf("phase %s deployed %d of 8 nodes", p.Name, p.Deploys)
		}
	}
	// The dead shard's traffic was re-routed to replicas.
	if hs.Cluster().Stats().Failovers == 0 {
		t.Error("no failovers recorded despite a dead shard")
	}

	// Per-node WAN byte parity with the single-registry failover run:
	// replicas serve the identical compressed bytes, so what each node
	// pulls is independent of the tier behind the store.
	single, hn := run(0, 11)
	if hn.Cluster() != nil {
		t.Fatal("unsharded harness built a tier")
	}
	for i := 0; i < 8; i++ {
		id := NodeID(i)
		got := hs.Topology().Node(id).WAN.Stats().Bytes
		want := hn.Topology().Node(id).WAN.Stats().Bytes
		if got != want {
			t.Errorf("node %s pulled %d WAN bytes sharded, %d single-registry", id, got, want)
		}
	}
	if sharded.LANBytes != single.LANBytes {
		t.Errorf("LAN bytes %d sharded vs %d single-registry", sharded.LANBytes, single.LANBytes)
	}

	// Reproducibility holds for sharded runs too.
	again, _ := run(3, 11)
	j1, err := sharded.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := again.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("same (scenario, seed) produced different sharded results:\n--- run 1\n%s\n--- run 2\n%s", j1, j2)
	}
}

// TestShardedOptionsValidation: a degenerate single-shard tier is
// allowed (replication clamps to 1) and bad shard counts fail fast.
func TestShardedSingleShard(t *testing.T) {
	h, err := New(testWorkload(t), Options{Nodes: 2, Seed: 7, Shards: 1})
	if err != nil {
		t.Fatalf("New(1 shard): %v", err)
	}
	if n := len(h.Cluster().Replicas(hashing.FingerprintBytes(nil))); n != 1 {
		t.Fatalf("single-shard replication = %d, want 1", n)
	}
	if _, err := h.Run(FlashCrowd); err != nil {
		t.Fatalf("Run over single-shard tier: %v", err)
	}
}

// TestStragglerScenario: the straggler scenario slows the busiest shard
// 10x without killing anything. Rank-order reads must pay for it — the
// slow phase's registry-side serve time balloons — while balanced reads
// route around it and keep the slow phase close to steady. Either way
// every deploy completes and the run stays bit-reproducible.
func TestStragglerScenario(t *testing.T) {
	run := func(balance, hedge bool) (*Result, *Harness) {
		t.Helper()
		// Peers stay off so every read lands on the shard tier — the
		// contrast under test is read routing, not peer offload.
		h, err := New(testWorkload(t), Options{
			Nodes: 8, Seed: 11, Shards: 4,
			ReadBalance: balance, ReadHedge: hedge,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := h.Run(Straggler)
		if err != nil {
			t.Fatalf("Run(straggler): %v", err)
		}
		return res, h
	}
	// Registry-side serve time of the slow phase, per variant.
	slowServe := func(h *Harness, res *Result) int64 {
		t.Helper()
		if len(res.Phases) != 3 || res.Phases[1].Name != "slow" {
			t.Fatalf("phases = %+v", res.Phases)
		}
		return res.Phases[1].ShardWAN.Elapsed.Nanoseconds()
	}

	rank, hRank := run(false, false)
	if rank.SlowShard == "" {
		t.Fatal("straggler slowed no shard")
	}
	for _, p := range rank.Phases {
		if p.Deploys != 8 {
			t.Fatalf("phase %s deployed %d of 8 nodes", p.Name, p.Deploys)
		}
	}
	// No failures: a straggler is slow, not dead.
	if got := hRank.Cluster().Stats().Failovers; got != 0 {
		t.Fatalf("straggler run recorded %d failovers, want 0", got)
	}

	bal, hBal := run(true, true)
	rankSlow, balSlow := slowServe(hRank, rank), slowServe(hBal, bal)
	if balSlow*2 >= rankSlow {
		t.Errorf("balanced slow-phase serve time %d ns, want well under rank-order %d ns", balSlow, rankSlow)
	}
	// Client bytes are unaffected by read policy: replicas serve
	// identical compressed bytes.
	if rank.WANBytes != bal.WANBytes {
		t.Errorf("client WAN bytes %d rank-order vs %d balanced", rank.WANBytes, bal.WANBytes)
	}

	// Reproducibility.
	again, _ := run(true, true)
	j1, err := bal.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := again.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("same (scenario, seed) produced different straggler results:\n--- run 1\n%s\n--- run 2\n%s", j1, j2)
	}

	// Without a tier the scenario refuses to run.
	h, err := New(testWorkload(t), Options{Nodes: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(Straggler); !errors.Is(err, ErrBadFleet) {
		t.Fatalf("straggler without shards err = %v", err)
	}
}

// daemon returns the daemon of an attached node.
func (h *Harness) daemon(id string) (*dockersim.Daemon, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, ok := h.nodes[id]
	if !ok {
		return nil, false
	}
	return n.daemon, true
}
