// Package fleet is the one place a deployment workload is published and
// a multi-client fleet is built: Publish converts corpus series into
// in-process registries, and New composes a netsim.Topology, a peer
// tracker, an optional sharded registry tier, and per-node dockersim
// daemons into fleets of up to thousands of nodes, which it drives
// through scripted scenarios — flash-crowd rollouts, node churn,
// registry failover, mixed long/short-running workloads.
//
// Every random decision a scenario makes (deployment order, who leaves,
// who rejoins, which paths a long-running service reads) is drawn from
// one seeded math/rand source, and all daemons publish into one shared
// telemetry registry, so a run is bit-reproducible from (scenario,
// seed): same seed, same schedule, same telemetry snapshot, the store's
// demand stall included. Stall is the priced duration when a hook prices
// it, otherwise wall time, and every fleet daemon's store is priced by
// dockersim, so the stall is netsim time.
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/peer"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/shardreg"
	"github.com/gear-image/gear/internal/telemetry"
)

// Errors returned by the harness.
var (
	// ErrBadFleet reports invalid harness options or workload parameters.
	ErrBadFleet = errors.New("invalid fleet configuration")
	// ErrAlreadyJoined reports a Join for a node id that is attached.
	ErrAlreadyJoined = errors.New("node already joined")
	// ErrAlreadyRun reports a second Run on a single-use harness.
	ErrAlreadyRun = errors.New("harness already ran a scenario")
)

// GearPrefix names a series' Gear form beside the original in the
// workload's Docker registry: the converter publishes under it and
// Series.Ref is built from it.
const GearPrefix = "gear/"

// The link classes of every fleet, in paper-quoted Mbps before corpus
// scaling: the paper's 20 Mbps registry uplink and 1000 Mbps cluster LAN.
const (
	WANMbps = 20
	LANMbps = 1000
)

// Series is one published image series: its Gear index reference, its
// version tags, and the per-version access lists and task compute the
// daemons replay.
type Series struct {
	Name     string
	Category corpus.Category
	// Ref is the Gear index reference (GearPrefix + Name).
	Ref  string
	Tags []string
	// Access[v] is version v's launch-time access list.
	Access [][]string
	// Compute is the per-deploy task compute time.
	Compute time.Duration
}

// Workload is the image material a fleet deploys: series published into
// in-process registries (original images + Gear index images in Docker,
// Gear files in Gear). It is read-only once built, so one workload can
// back many harnesses (and many scenario runs). Scenarios roll out the
// first series.
type Workload struct {
	Docker *registry.Registry
	Gear   *gearregistry.Registry
	Series []Series
	// Scale is the corpus byte scale the workload was built at; the
	// harness sizes link bandwidths and wire overheads by it.
	Scale float64
}

// WorkloadOptions parameterizes BuildWorkload. Zero fields default to
// the experiments package's quick configuration (seed 20211107, scale
// 0.25, the nginx series, 4 versions).
type WorkloadOptions struct {
	Seed     int64
	Scale    float64
	Series   string
	Versions int
}

// BuildWorkload publishes one deterministic series into fresh
// registries and returns the fleet's deployment material.
func BuildWorkload(o WorkloadOptions) (*Workload, error) {
	if o.Seed == 0 {
		o.Seed = 20211107
	}
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.Series == "" {
		o.Series = "nginx"
	}
	if o.Versions == 0 {
		o.Versions = 4
	}
	co, err := corpus.New(corpus.Options{
		Seed:         o.Seed,
		Scale:        o.Scale,
		SeriesFilter: []string{o.Series},
		MaxVersions:  o.Versions,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: workload corpus: %w", err)
	}
	if len(co.Series()) == 0 {
		return nil, fmt.Errorf("fleet: workload series %q: %w", o.Series, ErrBadFleet)
	}
	return Publish(co, co.Series(), o.Scale)
}

// Publish converts every version of the given series with one
// converter, in series then version order, pushes the originals and
// their Gear forms into fresh registries, and records each series'
// access lists and task compute. scale is the corpus's byte scale.
func Publish(co *corpus.Corpus, series []corpus.Series, scale float64) (*Workload, error) {
	wl := &Workload{
		Docker: registry.New(),
		Gear:   gearregistry.New(gearregistry.Options{Compress: true}),
		Scale:  scale,
	}
	conv, err := convert.New(convert.Options{IndexPrefix: GearPrefix})
	if err != nil {
		return nil, fmt.Errorf("fleet: workload converter: %w", err)
	}
	for _, s := range series {
		ws := Series{Name: s.Name, Category: s.Category, Ref: GearPrefix + s.Name, Tags: s.Tags()}
		for v := range ws.Tags {
			paths, err := wl.publish(co, conv, s.Name, v)
			if err != nil {
				return nil, fmt.Errorf("fleet: workload %s v%d: %w", s.Name, v, err)
			}
			ws.Access = append(ws.Access, paths)
		}
		if ws.Compute, err = co.TaskCompute(s.Name); err != nil {
			return nil, fmt.Errorf("fleet: workload compute: %w", err)
		}
		wl.Series = append(wl.Series, ws)
	}
	return wl, nil
}

// publish pushes version v of a series and its Gear form, and returns
// the version's launch-time access list.
func (wl *Workload) publish(co *corpus.Corpus, conv *convert.Converter, series string, v int) ([]string, error) {
	img, err := co.Image(series, v)
	if err != nil {
		return nil, err
	}
	if _, err := registry.Push(wl.Docker, img); err != nil {
		return nil, err
	}
	res, err := conv.Convert(img)
	if err != nil {
		return nil, err
	}
	if _, _, err := convert.Publish(res, wl.Docker, wl.Gear); err != nil {
		return nil, err
	}
	items, err := co.NecessarySet(series, v)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(items))
	for i, it := range items {
		paths[i] = it.Path
	}
	return paths, nil
}

// Options configures a Harness.
type Options struct {
	// Nodes is the fleet size scenarios script against.
	Nodes int
	// Seed drives every random scenario decision.
	Seed int64
	// Peers enables the cluster tracker + peer exchange, so Gear
	// fetches try LAN peers before the registry WAN.
	Peers bool
	// Telemetry is the fleet-wide metrics registry every daemon
	// publishes into. Nil creates a private one (Snapshot still works).
	Telemetry *telemetry.Registry
	// Shards, when > 0, backs the fleet with a sharded registry tier
	// (internal/shardreg) seeded from the workload's Gear pool instead
	// of the single-node registry. The shard tier gets its own topology
	// (same link classes) so the fleet.wan.* gauges keep counting
	// client-side traffic only — a sharded fleet's per-node bytes stay
	// comparable to a single-registry run.
	Shards int
	// Replication is the shard tier's replica count (only meaningful
	// with Shards > 0; default min(2, Shards) so the failover scenario
	// can lose a shard without losing objects).
	Replication int
	// ReadBalance picks shard-tier download replicas by
	// power-of-two-choices over observed load instead of ring rank
	// (shardreg.ReadOptions.Balance). Placement is unchanged.
	ReadBalance bool
	// ReadHedge arms hedged shard-tier downloads: a mirrored request to
	// the next-best replica once the first runs past the adaptive delay
	// (shardreg.ReadOptions.Hedge).
	ReadHedge bool
}

// node is one attached fleet member.
type node struct {
	daemon *dockersim.Daemon
	// last is the most recent deployment, the target of Read and
	// DestroyLast.
	last *dockersim.Deployment
}

// Harness drives one fleet. Scenario execution is single-threaded (the
// virtual clock makes that the deterministic order), but Snapshot and
// the read-only accessors are safe to call concurrently with a running
// scenario — that is the -race hammer contract.
type Harness struct {
	wl *Workload
	// series is what scenarios roll out: the workload's first series.
	series  *Series
	opts    Options
	tele    *telemetry.Registry
	topo    *netsim.Topology
	tracker *peer.Tracker
	network *peer.StaticNetwork
	rng     *rand.Rand
	// requestBytes is the wire overhead a daemon is charged per Gear
	// fetch: the paper's 900 bytes, scaled like the corpus.
	requestBytes int64
	// cluster is the sharded registry tier (nil without Options.Shards);
	// shardTopo is the tier's own topology, kept apart from the client
	// fleet's so fleet.wan.* stays client-side.
	cluster   *shardreg.Cluster
	shardTopo *netsim.Topology

	mu        sync.Mutex
	nodes     map[string]*node
	active    []string // attachment order
	maxDeploy time.Duration
	ran       bool

	joins, leaves, deploys *telemetry.Counter
	reads, destroys        *telemetry.Counter
	deployNS, readNS       *telemetry.Counter
	destroyNS, readBytes   *telemetry.Counter
	nodesGauge             *telemetry.Gauge
	wanBytes, wanRequests  *telemetry.Gauge
	wanElapsed             *telemetry.Gauge
	lanBytes, lanRequests  *telemetry.Gauge
	lanElapsed             *telemetry.Gauge
}

// New returns a harness over wl. No nodes are attached yet; scenarios
// (or tests) call Join.
func New(wl *Workload, opts Options) (*Harness, error) {
	if wl == nil || len(wl.Series) == 0 || len(wl.Series[0].Tags) == 0 {
		return nil, fmt.Errorf("fleet: nil or empty workload: %w", ErrBadFleet)
	}
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("fleet: %d nodes: %w", opts.Nodes, ErrBadFleet)
	}
	scale := wl.Scale
	if scale == 0 {
		scale = 1
	}
	// The fleet's link classes, scaled like the corpus.
	wan := netsim.DefaultLAN().WithBandwidth(WANMbps / 1000.0 * scale)
	lan := netsim.DefaultLAN().WithBandwidth(LANMbps / 1000.0 * scale)
	tele := opts.Telemetry
	if tele == nil {
		tele = telemetry.NewRegistry()
	}
	topo, err := netsim.NewTopology(wan, lan)
	if err != nil {
		return nil, fmt.Errorf("fleet: topology: %w", err)
	}
	h := &Harness{
		wl:           wl,
		series:       &wl.Series[0],
		opts:         opts,
		tele:         tele,
		topo:         topo,
		tracker:      peer.NewTracker(),
		network:      peer.NewStaticNetwork(),
		rng:          rand.New(rand.NewSource(opts.Seed)),
		requestBytes: int64(900 * scale),
		nodes:        make(map[string]*node),
		joins:        tele.Counter("fleet.joins"),
		leaves:       tele.Counter("fleet.leaves"),
		deploys:      tele.Counter("fleet.deploys"),
		reads:        tele.Counter("fleet.reads"),
		destroys:     tele.Counter("fleet.destroys"),
		deployNS:     tele.Counter("fleet.deploy.virtual.ns"),
		readNS:       tele.Counter("fleet.read.virtual.ns"),
		destroyNS:    tele.Counter("fleet.destroy.virtual.ns"),
		readBytes:    tele.Counter("fleet.read.bytes"),
		nodesGauge:   tele.Gauge("fleet.nodes"),
		wanBytes:     tele.Gauge("fleet.wan.bytes"),
		wanRequests:  tele.Gauge("fleet.wan.requests"),
		wanElapsed:   tele.Gauge("fleet.wan.elapsed.ns"),
		lanBytes:     tele.Gauge("fleet.lan.bytes"),
		lanRequests:  tele.Gauge("fleet.lan.requests"),
		lanElapsed:   tele.Gauge("fleet.lan.elapsed.ns"),
	}
	if opts.Shards > 0 {
		if opts.Replication == 0 {
			opts.Replication = 2
			if opts.Shards < 2 {
				opts.Replication = opts.Shards
			}
			h.opts.Replication = opts.Replication
		}
		h.shardTopo, err = netsim.NewTopology(wan, lan)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard topology: %w", err)
		}
		ids := make([]string, opts.Shards)
		for i := range ids {
			ids[i] = ShardID(i)
		}
		h.cluster, err = shardreg.New(shardreg.Options{
			Shards:      ids,
			Replication: opts.Replication,
			Compress:    true,
			Telemetry:   tele,
			Topology:    h.shardTopo,
			Read: shardreg.ReadOptions{
				Balance: opts.ReadBalance,
				Hedge:   opts.ReadHedge,
				Seed:    uint64(opts.Seed),
			},
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: shard tier: %w", err)
		}
		// Migrate the workload's published pool into the tier so deploys
		// fetch from shards, not the single-node registry.
		if _, err := h.cluster.Seed(wl.Gear); err != nil {
			return nil, fmt.Errorf("fleet: shard seed: %w", err)
		}
	}
	return h, nil
}

// ShardID returns the canonical id of shard tier member i ("shard00"...).
func ShardID(i int) string { return fmt.Sprintf("shard%02d", i) }

// Cluster returns the sharded registry tier, or nil when the fleet runs
// against the single-node registry.
func (h *Harness) Cluster() *shardreg.Cluster { return h.cluster }

// ShardTopology returns the shard tier's own topology, or nil without
// one. Scenarios and tier-only callers slow or jitter shards through it.
func (h *Harness) ShardTopology() *netsim.Topology { return h.shardTopo }

// NodeID returns the canonical id of fleet member i ("node0000"...).
func NodeID(i int) string { return fmt.Sprintf("node%04d", i) }

// gearStore is what daemons fetch Gear files from: the shard tier's
// routing client when sharded, the workload's single registry otherwise.
// The daemons are oblivious — both speak the same Store + batch verbs.
func (h *Harness) gearStore() gearregistry.Store {
	if h.cluster != nil {
		return h.cluster
	}
	return h.wl.Gear
}

// Join attaches a new node: topology links, a daemon publishing into
// the fleet registry, and (with Options.Peers) a peer exchange plus a
// served cache. A node that left can rejoin under the same id with a
// cold cache and fresh links.
func (h *Harness) Join(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.nodes[id]; ok {
		return fmt.Errorf("fleet: join %q: %w", id, ErrAlreadyJoined)
	}
	dopts := dockersim.Options{
		Links:            h.topo.Node(id),
		GearRequestBytes: h.requestBytes,
		Telemetry:        h.tele,
	}
	if h.opts.Peers {
		dopts.Peers = peer.NewExchange(id, h.tracker, h.network, h.tele)
	}
	d, err := dockersim.NewDaemon(h.wl.Docker, h.gearStore(), dopts)
	if err != nil {
		return fmt.Errorf("fleet: join %q: %w", id, err)
	}
	if h.opts.Peers {
		// Cache membership drives tracker announcements/withdrawals, and
		// the node's cache serves the cluster. Peers serve compressed like
		// the registry so received bytes are source-independent.
		d.GearStore().Cache().SetHooks(h.tracker.Hooks(id))
		h.network.Add(id, peer.NewServer(id, d.GearStore().Cache()))
	}
	h.nodes[id] = &node{daemon: d}
	h.active = append(h.active, id)
	h.joins.Inc()
	h.nodesGauge.Set(int64(len(h.nodes)))
	return nil
}

// Leave detaches a node: its cache empties (firing tracker
// withdrawals), its file server leaves the network, and its topology
// links close so any in-flight transfer attempt fails with
// netsim.ErrLinkClosed. Leaving an unknown node reports
// netsim.ErrUnknownNode.
func (h *Harness) Leave(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, ok := h.nodes[id]
	if !ok {
		return fmt.Errorf("fleet: leave %q: %w", id, netsim.ErrUnknownNode)
	}
	n.daemon.ClearGearCache()
	h.network.Remove(id)
	if err := h.topo.Detach(id); err != nil {
		return fmt.Errorf("fleet: leave %q: %w", id, err)
	}
	delete(h.nodes, id)
	for i, a := range h.active {
		if a == id {
			h.active = append(h.active[:i], h.active[i+1:]...)
			break
		}
	}
	h.leaves.Inc()
	h.nodesGauge.Set(int64(len(h.nodes)))
	return nil
}

// lookup returns the named node or a typed error.
func (h *Harness) lookup(id string) (*node, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, ok := h.nodes[id]
	if !ok {
		return nil, fmt.Errorf("fleet: node %q: %w", id, netsim.ErrUnknownNode)
	}
	return n, nil
}

// Deploy deploys version v of the rolled-out series on the named node
// (Gear mode) and keeps the deployment as the node's current container.
func (h *Harness) Deploy(id string, v int) (*dockersim.Deployment, error) {
	return h.deploy(id, h.series, v)
}

// Rollout deploys every version of every workload series on the named
// node, in series then version order, through the same accounting as
// Deploy.
func (h *Harness) Rollout(id string) error {
	for i := range h.wl.Series {
		for v := range h.wl.Series[i].Tags {
			if _, err := h.deploy(id, &h.wl.Series[i], v); err != nil {
				return err
			}
		}
	}
	return nil
}

// deploy deploys version v of series s on the named node and counts it.
func (h *Harness) deploy(id string, s *Series, v int) (*dockersim.Deployment, error) {
	if v < 0 || v >= len(s.Tags) {
		return nil, fmt.Errorf("fleet: deploy %q: version %d of %d: %w",
			id, v, len(s.Tags), ErrBadFleet)
	}
	n, err := h.lookup(id)
	if err != nil {
		return nil, err
	}
	dep, err := n.daemon.DeployGear(s.Ref, s.Tags[v], s.Access[v], s.Compute)
	if err != nil {
		return nil, fmt.Errorf("fleet: deploy %q v%d: %w", id, v, err)
	}
	h.mu.Lock()
	n.last = dep
	if dep.Total() > h.maxDeploy {
		h.maxDeploy = dep.Total()
	}
	h.mu.Unlock()
	h.deploys.Inc()
	h.deployNS.Add(int64(dep.Total()))
	return dep, nil
}

// Read serves one file from the node's current container — a
// long-running service handling a request.
func (h *Harness) Read(id, path string) (time.Duration, error) {
	n, err := h.lookup(id)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	dep := n.last
	h.mu.Unlock()
	if dep == nil {
		return 0, fmt.Errorf("fleet: read %q: %w", id, dockersim.ErrNotDeployed)
	}
	data, cost, err := dep.Read(path)
	if err != nil {
		return 0, fmt.Errorf("fleet: read %q %s: %w", id, path, err)
	}
	h.reads.Inc()
	h.readBytes.Add(int64(len(data)))
	h.readNS.Add(int64(cost))
	return cost, nil
}

// DestroyLast tears down the node's current container — the tail of a
// short-running lifecycle.
func (h *Harness) DestroyLast(id string) (time.Duration, error) {
	n, err := h.lookup(id)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	dep := n.last
	n.last = nil
	h.mu.Unlock()
	if dep == nil {
		return 0, fmt.Errorf("fleet: destroy %q: %w", id, dockersim.ErrNotDeployed)
	}
	cost, err := dep.Destroy()
	if err != nil {
		return 0, fmt.Errorf("fleet: destroy %q: %w", id, err)
	}
	h.destroys.Inc()
	h.destroyNS.Add(int64(cost))
	return cost, nil
}

// Active lists attached node ids in attachment order.
func (h *Harness) Active() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.active))
	copy(out, h.active)
	return out
}

// Topology exposes the fleet's network topology.
func (h *Harness) Topology() *netsim.Topology { return h.topo }

// Snapshot returns the fleet-wide telemetry snapshot. The fleet.wan.*
// and fleet.lan.* gauges are refreshed from the topology's aggregated
// link counters (detached nodes' past traffic included) so the snapshot
// is the whole fleet's picture. Safe to call while a scenario runs.
func (h *Harness) Snapshot() telemetry.Snapshot {
	h.refreshLinkGauges()
	return h.tele.Snapshot()
}

// refreshLinkGauges folds the topology's aggregated link counters into
// the fleet.wan.*/fleet.lan.* gauges. The read-stats-then-set-gauge
// sequence is serialized so a stale read can never overwrite a fresher
// one: with the link counters monotone, serialized refreshes keep the
// gauges monotone too, and concurrent snapshot readers may trust that.
func (h *Harness) refreshLinkGauges() {
	h.mu.Lock()
	wan := h.topo.WANStats()
	h.wanBytes.Set(wan.Bytes)
	h.wanRequests.Set(wan.Requests)
	h.wanElapsed.Set(int64(wan.Elapsed))
	lan := h.topo.LANStats()
	h.lanBytes.Set(lan.Bytes)
	h.lanRequests.Set(lan.Requests)
	h.lanElapsed.Set(int64(lan.Elapsed))
	h.nodesGauge.Set(int64(len(h.nodes)))
	h.mu.Unlock()
}
