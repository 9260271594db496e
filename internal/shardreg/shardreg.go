// Package shardreg is the multi-node Gear Registry tier: fingerprints
// are placed on shards by consistent hashing (virtual nodes for
// balance), replicated to N shards, and served through a routing client
// that implements the same Store protocol — all six verbs — as a
// single gearregistry.Registry, so the store, push pipeline, and
// deployment daemons work against a sharded tier unchanged.
//
// The tier removes the single-registry ceiling the paper's evaluation
// assumes (EdgePier makes the same move for edge registries): each
// shard owns ~1/S of the object space, so registry-side egress and
// serve time per shard fall near-linearly with shard count, and N-way
// replication lets the router fail a batch over to the next replica
// when a shard dies. A 1-shard, 1-replica cluster degenerates exactly
// to a single registry: same routing (everything to the one shard),
// same stored bytes (deterministic gzip), same wire bytes.
//
// Membership changes rebalance by reconciling physical placement with
// the ring: only the consistent-hash delta moves (downloaded from a
// surviving replica, uploaded to the new owner, dropped from
// ex-replicas), and the moved bytes are priced through per-shard
// netsim.Topology links when a topology is attached.
package shardreg

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gear-image/gear/internal/clientopt"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/telemetry"
)

// DefaultVirtualNodes is the per-shard virtual-node count when Options
// leaves it zero: enough points that primary ownership stays within a
// few percent of even at single-digit shard counts.
const DefaultVirtualNodes = 64

// Errors returned by the shard tier.
var (
	// ErrNoShards reports a cluster configured (or asked to route) with
	// no shards at all.
	ErrNoShards = errors.New("cluster has no shards")
	// ErrUnknownShard reports routing to a shard id that is not (or no
	// longer) a cluster member.
	ErrUnknownShard = errors.New("unknown shard")
	// ErrShardDown reports an operation against a killed shard, or a
	// routed operation whose every replica was unavailable.
	ErrShardDown = errors.New("shard down")
	// ErrBadReplication reports a replication factor the member count
	// cannot satisfy.
	ErrBadReplication = errors.New("replication factor out of range")
	// ErrBadShardID reports a shard id the wire framing cannot carry.
	ErrBadShardID = errors.New("invalid shard id")
	// ErrDuplicateShard reports adding a shard id twice.
	ErrDuplicateShard = errors.New("duplicate shard")
)

// Options configures a Cluster.
type Options struct {
	// Shards are the initial member ids. At least one is required; ids
	// must satisfy the wire charset (letters, digits, '.', '_', '-').
	Shards []string
	// Replication is how many shards hold each object (default 1; must
	// not exceed the member count).
	Replication int
	// VirtualNodes is the per-shard ring point count (default
	// DefaultVirtualNodes).
	VirtualNodes int
	// Compress stores objects gzip-compressed on every shard, like a
	// single registry with Options.Compress.
	Compress bool
	// Retry, when non-zero, wraps every shard's store with the shared
	// clientopt retry policy (the same wrapper a flaky single-registry
	// client uses); replica failover sits above it, so a transient
	// shard error retries in place before the router moves on.
	Retry clientopt.Options
	// Telemetry, if set, is the registry the tier's shardreg.* metrics
	// publish into — per-shard object/byte gauges plus routing counters
	// — so fleet-wide snapshots reconcile the tier exactly. Nil gets a
	// private registry.
	Telemetry *telemetry.Registry
	// Topology, if set, attaches one node per shard and prices served
	// and rebalanced bytes through that shard's WAN link — the
	// registry-side cost model of the extshard experiment.
	Topology *netsim.Topology
	// Read tunes the download side: load-balanced replica selection and
	// hedged requests. The zero value reads in strict rank order, the
	// pre-hedging behavior.
	Read ReadOptions
}

// shard is one cluster member: an in-process Gear registry behind the
// (optionally retry-wrapped) store interface, its topology links, and
// its liveness flag.
type shard struct {
	id    string
	reg   *gearregistry.Registry
	store gearregistry.Store
	links *netsim.NodeLinks
	down  atomic.Bool

	// ewma is the smoothed observed download latency in nanoseconds and
	// inflight the concurrent-read occupancy — together the load score
	// the power-of-two-choices balancer compares.
	ewma     atomic.Int64
	inflight atomic.Int64

	// objects/bytes are the per-shard telemetry views
	// (shardreg.shard.<id>.objects / .bytes), synced on every mutation;
	// reads/readBytes are the served-read counters behind the read-share
	// columns.
	objects   *telemetry.Gauge
	bytes     *telemetry.Gauge
	reads     *telemetry.Counter
	readBytes *telemetry.Counter
}

// downErr is the typed unavailability error for this shard.
func (s *shard) downErr() error {
	return fmt.Errorf("shardreg: shard %s: %w", s.id, ErrShardDown)
}

// charge prices wire bytes served by (or moved through) this shard on
// its WAN link, when a topology is attached.
func (s *shard) charge(n int, wire int64) {
	if s.links == nil {
		return
	}
	if n <= 1 {
		s.links.WAN.Transfer(wire)
	} else {
		s.links.WAN.TransferBatch(n, wire)
	}
}

// sync refreshes the shard's telemetry gauges from its pool stats.
func (s *shard) sync() {
	st := s.reg.Stats()
	s.objects.Set(int64(st.Objects))
	s.bytes.Set(st.StoredBytes)
}

// Cluster is the routing client over the shard tier. It implements
// gearregistry.Store; batches fan out per shard and fail over per
// sub-batch to each fingerprint's next replica. Safe for concurrent
// use.
type Cluster struct {
	opts Options
	tele *telemetry.Registry

	mu     sync.RWMutex
	ring   *Ring
	shards map[string]*shard

	queries, uploads, downloads *telemetry.Counter
	ranges                      *telemetry.Counter
	failovers, degraded         *telemetry.Counter
	rebalObjects, rebalBytes    *telemetry.Counter
	shardsGauge, downGauge      *telemetry.Gauge
	replGauge                   *telemetry.Gauge

	// Read-path telemetry: balanced picks that diverged from rank order,
	// hedges fired/won, cancelled-loser egress, and the client-observed
	// download latency distribution.
	readBalanced *telemetry.Counter
	hedgeFired   *telemetry.Counter
	hedgeWon     *telemetry.Counter
	hedgeWaste   *telemetry.Counter
	latHist      *telemetry.Histogram

	// latMu guards the smoothed latency pair the adaptive hedge trigger
	// is derived from: srtt (per-request download latency) and srttPB
	// (per-byte latency, ns/byte). Together they model the expected cost
	// of a read of known size in both overhead- and wire-dominated
	// regimes, so big-but-healthy downloads don't trip the trigger.
	latMu  sync.Mutex
	srtt   time.Duration
	srttPB float64
}

var _ gearregistry.Store = (*Cluster)(nil)

// validateShardID enforces the wire charset: the routed framing carries
// shard ids as a space-delimited header field.
func validateShardID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("shardreg: shard id %q: %w", id, ErrBadShardID)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("shardreg: shard id %q: %w", id, ErrBadShardID)
		}
	}
	return nil
}

// New returns a cluster with the given members. Every shard starts
// empty; use Seed to copy an existing registry's pool in under the
// ring's placement.
func New(opts Options) (*Cluster, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("shardreg: %w", ErrNoShards)
	}
	if opts.Replication == 0 {
		opts.Replication = 1
	}
	if opts.Replication < 1 || opts.Replication > len(opts.Shards) {
		return nil, fmt.Errorf("shardreg: %d replicas across %d shards: %w",
			opts.Replication, len(opts.Shards), ErrBadReplication)
	}
	if opts.VirtualNodes < 1 {
		opts.VirtualNodes = DefaultVirtualNodes
	}
	tele := opts.Telemetry
	if tele == nil {
		tele = telemetry.NewRegistry()
	}
	c := &Cluster{
		opts:         opts,
		tele:         tele,
		ring:         NewRing(opts.VirtualNodes),
		shards:       make(map[string]*shard, len(opts.Shards)),
		queries:      tele.Counter("shardreg.query.requests"),
		uploads:      tele.Counter("shardreg.upload.requests"),
		downloads:    tele.Counter("shardreg.download.requests"),
		ranges:       tele.Counter("shardreg.range.requests"),
		failovers:    tele.Counter("shardreg.failovers"),
		degraded:     tele.Counter("shardreg.upload.degraded"),
		rebalObjects: tele.Counter("shardreg.rebalance.objects"),
		rebalBytes:   tele.Counter("shardreg.rebalance.bytes"),
		shardsGauge:  tele.Gauge("shardreg.shards"),
		downGauge:    tele.Gauge("shardreg.shards.down"),
		replGauge:    tele.Gauge("shardreg.replication"),
		readBalanced: tele.Counter("shardreg.read.balanced"),
		hedgeFired:   tele.Counter("shardreg.hedge.fired"),
		hedgeWon:     tele.Counter("shardreg.hedge.won"),
		hedgeWaste:   tele.Counter("shardreg.hedge.waste.bytes"),
		latHist:      tele.Histogram("shardreg.download.latency", telemetry.DefaultLatencyBounds),
	}
	for _, id := range opts.Shards {
		if err := validateShardID(id); err != nil {
			return nil, err
		}
		if _, dup := c.shards[id]; dup {
			return nil, fmt.Errorf("shardreg: shard %q: %w", id, ErrDuplicateShard)
		}
		c.ring.Add(id)
		c.shards[id] = c.newShard(id)
	}
	c.shardsGauge.Set(int64(len(c.shards)))
	c.replGauge.Set(int64(opts.Replication))
	return c, nil
}

func (c *Cluster) newShard(id string) *shard {
	reg := gearregistry.New(gearregistry.Options{Compress: c.opts.Compress})
	var store gearregistry.Store = reg
	if c.opts.Retry.Attempts() > 1 {
		// Attempts >= 1 is guaranteed, so the constructor cannot fail.
		rs, _ := gearregistry.NewRetryStoreOptions(reg, c.opts.Retry)
		store = rs
	}
	s := &shard{
		id:        id,
		reg:       reg,
		store:     store,
		objects:   c.tele.Gauge("shardreg.shard." + id + ".objects"),
		bytes:     c.tele.Gauge("shardreg.shard." + id + ".bytes"),
		reads:     c.tele.Counter("shardreg.shard." + id + ".reads"),
		readBytes: c.tele.Counter("shardreg.shard." + id + ".read.bytes"),
	}
	if c.opts.Topology != nil {
		s.links = c.opts.Topology.Node(id)
	}
	return s
}

// Telemetry returns the metrics registry the tier publishes into.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.tele }

// Replication returns the configured replica count.
func (c *Cluster) Replication() int { return c.opts.Replication }

// VirtualNodes returns the per-shard ring point count.
func (c *Cluster) VirtualNodes() int { return c.opts.VirtualNodes }

// Shards lists member ids in sorted order.
func (c *Cluster) Shards() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Shards()
}

// Replicas returns the shards responsible for fp in replica order — the
// routing decision, exposed for tests and operators.
func (c *Cluster) Replicas(fp hashing.Fingerprint) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Lookup(fp, c.opts.Replication)
}

// shardByID resolves a member or reports ErrUnknownShard.
func (c *Cluster) shardByID(id string) (*shard, error) {
	c.mu.RLock()
	s, ok := c.shards[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("shardreg: shard %q: %w", id, ErrUnknownShard)
	}
	return s, nil
}

// replicaChain resolves fp's replica shards under one read lock.
func (c *Cluster) replicaChain(fp hashing.Fingerprint) []*shard {
	c.mu.RLock()
	ids := c.ring.Lookup(fp, c.opts.Replication)
	chain := make([]*shard, len(ids))
	for i, id := range ids {
		chain[i] = c.shards[id]
	}
	c.mu.RUnlock()
	return chain
}

// permanentUpload reports upload errors no other replica can fix.
func permanentUpload(err error) bool {
	return errors.Is(err, gearregistry.ErrFingerprintMismatch) ||
		errors.Is(err, hashing.ErrMalformed)
}

// Query implements gearregistry.Store as a QueryBatch of one: replicas
// are tried in ring order, failing over past dead or erroring shards.
func (c *Cluster) Query(fp hashing.Fingerprint) (bool, error) {
	present, err := c.QueryBatch([]hashing.Fingerprint{fp})
	if err != nil {
		return false, err
	}
	return present[0], nil
}

// Upload implements gearregistry.Store: the object lands on every live
// replica. Success needs at least one accepting shard; writing fewer
// copies than the replication factor counts as a degraded upload.
func (c *Cluster) Upload(fp hashing.Fingerprint, data []byte) error {
	c.uploads.Inc()
	if err := fp.Validate(); err != nil {
		return fmt.Errorf("shardreg: upload: %w", err)
	}
	chain := c.replicaChain(fp)
	if len(chain) == 0 {
		return fmt.Errorf("shardreg: upload %s: %w", fp, ErrNoShards)
	}
	stored := 0
	var lastErr error
	for _, s := range chain {
		if s.down.Load() {
			lastErr = s.downErr()
			continue
		}
		if err := s.store.Upload(fp, data); err != nil {
			if permanentUpload(err) {
				return fmt.Errorf("shardreg: upload %s: %w", fp, err)
			}
			lastErr = err
			continue
		}
		s.sync()
		stored++
	}
	if stored == 0 {
		return fmt.Errorf("shardreg: upload %s: no replica accepted: %w", fp, lastErr)
	}
	if stored < len(chain) {
		c.degraded.Inc()
	}
	return nil
}

// Download implements gearregistry.Store with replica failover (the
// single-read walk, readOne). Replica choice and hedging follow
// Options.Read; see DownloadTimed for the latency-returning form.
func (c *Cluster) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	payload, wire, _, err := c.DownloadTimed(fp)
	return payload, wire, err
}

// batchPermanent reports sub-batch errors that re-routing to another
// replica cannot fix; they fail the whole batch, preserving the
// all-or-nothing batch contract.
func batchPermanent(err error) bool {
	return errors.Is(err, gearregistry.ErrNotFound) ||
		errors.Is(err, gearregistry.ErrFingerprintMismatch) ||
		errors.Is(err, hashing.ErrMalformed)
}

// routeBatch is the fan-out engine shared by QueryBatch and
// DownloadBatch: it resolves every fingerprint's replica chain once,
// partitions the indices by each fingerprint's first live replica,
// serves one sub-batch per shard (in shard-id order, so runs are
// deterministic), and re-routes a failed sub-batch to each
// fingerprint's next replica. With balance set each chain is first
// reordered by power-of-two-choices (downloads only — queries are too
// cheap to matter); otherwise the first replica is the lowest rank.
// serve receives alt, resolving an index's next live replica, so a
// download sub-batch can hedge. With one shard the whole batch is a
// single sub-batch in request order — the exact single-registry call.
func (c *Cluster) routeBatch(fps []hashing.Fingerprint, balance bool, serve func(s *shard, idxs []int, alt func(int) *shard) error) error {
	c.mu.RLock()
	if c.ring.Len() == 0 {
		c.mu.RUnlock()
		return fmt.Errorf("shardreg: %w", ErrNoShards)
	}
	chains := make([][]*shard, len(fps))
	for i, fp := range fps {
		ids := c.ring.Lookup(fp, c.opts.Replication)
		chain := make([]*shard, len(ids))
		for j, id := range ids {
			chain[j] = c.shards[id]
		}
		chains[i] = chain
	}
	c.mu.RUnlock()
	if balance {
		for i, fp := range fps {
			chains[i] = c.readOrder(fp, chains[i])
		}
	}

	rank := make([]int, len(fps))
	remaining := make([]int, len(fps))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		groups := make(map[*shard][]int)
		var order []*shard
		for _, i := range remaining {
			for rank[i] < len(chains[i]) && chains[i][rank[i]].down.Load() {
				rank[i]++
				c.failovers.Inc()
			}
			if rank[i] >= len(chains[i]) {
				return fmt.Errorf("shardreg: %s: all %d replicas failed: %w",
					fps[i], len(chains[i]), ErrShardDown)
			}
			s := chains[i][rank[i]]
			if _, ok := groups[s]; !ok {
				order = append(order, s)
			}
			groups[s] = append(groups[s], i)
		}
		sort.Slice(order, func(a, b int) bool { return order[a].id < order[b].id })
		alt := func(i int) *shard { return nextLive(chains[i], rank[i]+1) }
		remaining = remaining[:0]
		for _, s := range order {
			idxs := groups[s]
			if err := serve(s, idxs, alt); err != nil {
				if batchPermanent(err) {
					return err
				}
				for _, i := range idxs {
					rank[i]++
				}
				c.failovers.Inc()
				remaining = append(remaining, idxs...)
			}
		}
		sort.Ints(remaining)
	}
	return nil
}

// QueryBatch implements gearregistry.BatchQuerier by fanning the batch
// out per shard. Batches stay all-or-nothing: any malformed fingerprint
// fails the whole batch before routing.
func (c *Cluster) QueryBatch(fps []hashing.Fingerprint) ([]bool, error) {
	c.queries.Add(int64(len(fps)))
	for _, fp := range fps {
		if err := fp.Validate(); err != nil {
			return nil, fmt.Errorf("shardreg: querybatch: %w", err)
		}
	}
	present := make([]bool, len(fps))
	err := c.routeBatch(fps, false, func(s *shard, idxs []int, _ func(int) *shard) error {
		sub := make([]hashing.Fingerprint, len(idxs))
		for k, i := range idxs {
			sub[k] = fps[i]
		}
		verdicts, err := s.store.QueryBatch(sub)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			present[i] = verdicts[k]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return present, nil
}

// DownloadBatch implements gearregistry.BatchDownloader by fanning the
// batch out per shard and re-routing failed sub-batches to the next
// replica. Payloads come back uncompressed in request order; wire bytes
// are the sum over sub-batches, each priced on the serving shard's
// link.
func (c *Cluster) DownloadBatch(fps []hashing.Fingerprint) ([][]byte, int64, error) {
	c.downloads.Add(int64(len(fps)))
	for _, fp := range fps {
		if err := fp.Validate(); err != nil {
			return nil, 0, fmt.Errorf("shardreg: batch: %w", err)
		}
	}
	payloads := make([][]byte, len(fps))
	var wire int64
	err := c.routeBatch(fps, c.opts.Read.Balance, func(s *shard, idxs []int, alt func(int) *shard) error {
		sub := make([]hashing.Fingerprint, len(idxs))
		for k, i := range idxs {
			sub[k] = fps[i]
		}
		ps, w, err := s.store.DownloadBatch(sub)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			payloads[i] = ps[k]
		}
		wire += w
		c.priceBatch(s, idxs, w, false, alt)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return payloads, wire, nil
}

// ShardQueryBatch answers a batch against one addressed shard, with no
// failover — the shard-addressed RPC the routing wire protocol carries.
// Routing to a non-member reports ErrUnknownShard; a killed shard
// reports ErrShardDown.
func (c *Cluster) ShardQueryBatch(id string, fps []hashing.Fingerprint) ([]bool, error) {
	s, err := c.shardByID(id)
	if err != nil {
		return nil, err
	}
	if s.down.Load() {
		return nil, s.downErr()
	}
	c.queries.Add(int64(len(fps)))
	return s.store.QueryBatch(fps)
}

// ShardDownloadBatch serves a batch from one addressed shard, with no
// failover. Errors as ShardQueryBatch.
func (c *Cluster) ShardDownloadBatch(id string, fps []hashing.Fingerprint) ([][]byte, int64, error) {
	s, err := c.shardByID(id)
	if err != nil {
		return nil, 0, err
	}
	if s.down.Load() {
		return nil, 0, s.downErr()
	}
	c.downloads.Add(int64(len(fps)))
	payloads, wire, err := s.store.DownloadBatch(fps)
	if err != nil {
		return nil, 0, err
	}
	s.charge(len(fps), wire)
	s.countRead(len(fps), wire)
	return payloads, wire, nil
}

// KillShard marks a member dead: every routed operation fails over past
// it, and shard-addressed operations report ErrShardDown. Its data is
// retained for ReviveShard. Kill models failure — membership (and
// placement) does not change.
func (c *Cluster) KillShard(id string) error {
	s, err := c.shardByID(id)
	if err != nil {
		return err
	}
	if !s.down.Swap(true) {
		c.downGauge.Add(1)
	}
	return nil
}

// ReviveShard brings a killed member back with its data intact. Objects
// uploaded while it was down are not backfilled; run Rebalance to
// reconcile if writes happened during the outage.
func (c *Cluster) ReviveShard(id string) error {
	s, err := c.shardByID(id)
	if err != nil {
		return err
	}
	if s.down.Swap(false) {
		c.downGauge.Add(-1)
	}
	return nil
}

// RebalanceStats accounts a membership change: what moved over the
// wire and what ex-replicas dropped. It is a pure value snapshot; the
// cumulative counterparts live in the shardreg.rebalance.* telemetry
// counters.
type RebalanceStats struct {
	// MovedObjects/MovedBytes count replica copies created (bytes as
	// stored, i.e. wire-priced).
	MovedObjects int   `json:"movedObjects"`
	MovedBytes   int64 `json:"movedBytes"`
	// DroppedObjects/FreedBytes count replica copies deleted from
	// shards the ring no longer maps them to.
	DroppedObjects int   `json:"droppedObjects"`
	FreedBytes     int64 `json:"freedBytes"`
}

// AddShard grows the tier by one member and rebalances: exactly the
// objects whose replica set now includes the new shard are copied in
// (from a surviving replica), and copies stranded on ex-replicas are
// dropped. Only the consistent-hash delta moves.
func (c *Cluster) AddShard(id string) (RebalanceStats, error) {
	if err := validateShardID(id); err != nil {
		return RebalanceStats{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.shards[id]; ok {
		return RebalanceStats{}, fmt.Errorf("shardreg: shard %q: %w", id, ErrDuplicateShard)
	}
	c.ring.Add(id)
	c.shards[id] = c.newShard(id)
	c.shardsGauge.Set(int64(len(c.shards)))
	return c.rebalanceLocked()
}

// RemoveShard gracefully drains a member: the ring drops it, its
// objects move to their new owners (the leaving shard serves as a
// source), and the member is discarded. Removal must leave at least
// Replication members. On a rebalance error the member is kept (its
// data may still be a needed source); Rebalance can be re-run.
func (c *Cluster) RemoveShard(id string) (RebalanceStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.shards[id]
	if !ok {
		return RebalanceStats{}, fmt.Errorf("shardreg: shard %q: %w", id, ErrUnknownShard)
	}
	if len(c.shards)-1 < c.opts.Replication {
		return RebalanceStats{}, fmt.Errorf("shardreg: removing %s leaves %d shards for %d replicas: %w",
			id, len(c.shards)-1, c.opts.Replication, ErrBadReplication)
	}
	c.ring.Remove(id)
	st, err := c.rebalanceLocked()
	if err != nil {
		return st, err
	}
	if s.down.Load() {
		c.downGauge.Add(-1)
	}
	delete(c.shards, id)
	c.shardsGauge.Set(int64(len(c.shards)))
	s.objects.Set(0)
	s.bytes.Set(0)
	return st, nil
}

// Rebalance reconciles physical placement with the current ring — a
// no-op when they already agree. Exposed for recovery after a partial
// membership change or a revive-after-writes.
func (c *Cluster) Rebalance() (RebalanceStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebalanceLocked()
}

// rebalanceLocked moves the delta between where objects physically are
// and where the ring maps them: missing replicas are copied from the
// first live holder (priced out of the source and into the target), and
// holders outside the replica set drop their copies. Physical placement
// always equals the previous ring's placement, so this is exactly the
// consistent-hash delta.
func (c *Cluster) rebalanceLocked() (RebalanceStats, error) {
	var st RebalanceStats
	ids := make([]string, 0, len(c.shards))
	for id := range c.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	holders := make(map[hashing.Fingerprint][]*shard)
	var order []hashing.Fingerprint
	for _, id := range ids {
		s := c.shards[id]
		for _, fp := range s.reg.Fingerprints() {
			if _, ok := holders[fp]; !ok {
				order = append(order, fp)
			}
			holders[fp] = append(holders[fp], s)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	for _, fp := range order {
		want := c.ring.Lookup(fp, c.opts.Replication)
		wantSet := make(map[string]bool, len(want))
		for _, id := range want {
			wantSet[id] = true
		}
		hold := holders[fp]
		holdSet := make(map[string]bool, len(hold))
		for _, h := range hold {
			holdSet[h.id] = true
		}
		for _, id := range want {
			if holdSet[id] {
				continue
			}
			var src *shard
			for _, h := range hold {
				if !h.down.Load() {
					src = h
					break
				}
			}
			if src == nil {
				return st, fmt.Errorf("shardreg: rebalance %s: no live source replica: %w", fp, ErrShardDown)
			}
			payload, wire, err := src.reg.Download(fp)
			if err != nil {
				return st, fmt.Errorf("shardreg: rebalance %s: %w", fp, err)
			}
			target := c.shards[id]
			if err := target.reg.Upload(fp, payload); err != nil {
				return st, fmt.Errorf("shardreg: rebalance %s: %w", fp, err)
			}
			st.MovedObjects++
			st.MovedBytes += wire
			src.charge(1, wire)
			target.charge(1, wire)
		}
		for _, h := range hold {
			if wantSet[h.id] {
				continue
			}
			freed, err := h.reg.Delete(fp)
			if err != nil {
				return st, fmt.Errorf("shardreg: rebalance %s: %w", fp, err)
			}
			st.DroppedObjects++
			st.FreedBytes += freed
		}
	}
	c.rebalObjects.Add(int64(st.MovedObjects))
	c.rebalBytes.Add(st.MovedBytes)
	for _, id := range ids {
		if s, ok := c.shards[id]; ok {
			s.sync()
		}
	}
	return st, nil
}

// Seed copies every object of src into the tier under the current
// placement — the migration step from a single-node registry to the
// sharded tier. Each object is uploaded once through the router (so it
// lands on all replicas); the count of source objects is returned.
func (c *Cluster) Seed(src *gearregistry.Registry) (int, error) {
	fps := src.Fingerprints()
	for _, fp := range fps {
		payload, _, err := src.Download(fp)
		if err != nil {
			return 0, fmt.Errorf("shardreg: seed %s: %w", fp, err)
		}
		if err := c.Upload(fp, payload); err != nil {
			return 0, fmt.Errorf("shardreg: seed: %w", err)
		}
	}
	return len(fps), nil
}

// PrimaryLoad returns, per member, how many stored objects the ring
// routes to it first — the load a single-shard failure re-routes to
// replicas. (OwnedShare is the hash-space analogue; this is the actual
// object count, which is what a worst-case kill should maximize.)
func (c *Cluster) PrimaryLoad() map[string]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int, len(c.shards))
	for _, s := range c.shards {
		out[s.id] = 0
	}
	seen := make(map[hashing.Fingerprint]bool)
	for _, s := range c.shards {
		for _, fp := range s.reg.Fingerprints() {
			if seen[fp] {
				continue
			}
			seen[fp] = true
			if ids := c.ring.Lookup(fp, 1); len(ids) == 1 {
				out[ids[0]]++
			}
		}
	}
	return out
}

// ShardStats is one member's view in Stats: a pure value snapshot over
// the shard's pool gauges and ring ownership.
type ShardStats struct {
	ID           string  `json:"id"`
	Down         bool    `json:"down"`
	Objects      int     `json:"objects"`
	StoredBytes  int64   `json:"storedBytes"`
	LogicalBytes int64   `json:"logicalBytes"`
	OwnedShare   float64 `json:"ownedShare"` // primary hash-space fraction
	Reads        int64   `json:"reads"`      // read requests this shard served
	ReadBytes    int64   `json:"readBytes"`  // wire bytes it served to readers
	ReadShare    float64 `json:"readShare"`  // fraction of the tier's served reads
}

// Stats summarizes the tier: per-shard placement and pool usage plus
// the routing counters — a view over the shardreg.* telemetry handles.
type Stats struct {
	Shards            []ShardStats `json:"shards"`
	Replication       int          `json:"replication"`
	VirtualNodes      int          `json:"virtualNodes"`
	Objects           int          `json:"objects"` // replica copies across the tier
	StoredBytes       int64        `json:"storedBytes"`
	Failovers         int64        `json:"failovers"`
	DegradedUploads   int64        `json:"degradedUploads"`
	RebalancedObjects int64        `json:"rebalancedObjects"`
	RebalancedBytes   int64        `json:"rebalancedBytes"`
	Reads             int64        `json:"reads"`           // read requests served across the tier
	BalancedReads     int64        `json:"balancedReads"`   // p2c picks that diverged from rank order
	HedgesFired       int64        `json:"hedgesFired"`     // hedged requests issued
	HedgesWon         int64        `json:"hedgesWon"`       // hedges whose backup finished first
	HedgeWasteBytes   int64        `json:"hedgeWasteBytes"` // cancelled-loser egress
}

// Stats returns a snapshot of the tier.
func (c *Cluster) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	share := c.ring.OwnedShare()
	st := Stats{
		Replication:       c.opts.Replication,
		VirtualNodes:      c.opts.VirtualNodes,
		Failovers:         c.failovers.Value(),
		DegradedUploads:   c.degraded.Value(),
		RebalancedObjects: c.rebalObjects.Value(),
		RebalancedBytes:   c.rebalBytes.Value(),
		BalancedReads:     c.readBalanced.Value(),
		HedgesFired:       c.hedgeFired.Value(),
		HedgesWon:         c.hedgeWon.Value(),
		HedgeWasteBytes:   c.hedgeWaste.Value(),
	}
	for _, id := range c.ring.Shards() {
		s := c.shards[id]
		ps := s.reg.Stats()
		st.Shards = append(st.Shards, ShardStats{
			ID:           id,
			Down:         s.down.Load(),
			Objects:      ps.Objects,
			StoredBytes:  ps.StoredBytes,
			LogicalBytes: ps.LogicalBytes,
			OwnedShare:   share[id],
			Reads:        s.reads.Value(),
			ReadBytes:    s.readBytes.Value(),
		})
		st.Objects += ps.Objects
		st.StoredBytes += ps.StoredBytes
		st.Reads += s.reads.Value()
	}
	if st.Reads > 0 {
		for i := range st.Shards {
			st.Shards[i].ReadShare = float64(st.Shards[i].Reads) / float64(st.Reads)
		}
	}
	return st
}
