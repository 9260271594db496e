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
// The member set is fixed when New returns. Placement is a pure function
// of it, so routing reads the ring without a lock, and an object is
// written only to its replica set and never sits outside it. A member
// can fail (KillShard) and come back (ReviveShard); a revive first
// copies in what the shard missed while it was down, from live
// replicas, priced through the per-shard netsim.Topology links when a
// topology is attached, and only then serves reads. A tier of other
// members is a new tier, filled with Seed. (The tier once resharded in
// place, with AddShard, RemoveShard and Rebalance; nothing but their
// tests called them, and they made every read take a lock that only
// they wrote under.)
package shardreg

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/telemetry"
)

// DefaultVirtualNodes is the per-shard virtual-node count of every
// cluster's ring: enough points that primary ownership stays within a
// few percent of even at single-digit shard counts.
const DefaultVirtualNodes = 64

// Errors returned by the shard tier.
var (
	// ErrNoShards reports a cluster configured with no shards at all.
	ErrNoShards = errors.New("cluster has no shards")
	// ErrUnknownShard reports a shard id that is not a cluster member.
	ErrUnknownShard = errors.New("unknown shard")
	// ErrShardDown reports an operation against a killed shard, or a
	// routed operation whose every replica was unavailable.
	ErrShardDown = errors.New("shard down")
	// ErrBadReplication reports a replication factor the member count
	// cannot satisfy.
	ErrBadReplication = errors.New("replication factor out of range")
	// ErrBadShardID reports a shard id that cannot name the shard's
	// telemetry metrics and netsim node.
	ErrBadShardID = errors.New("invalid shard id")
	// ErrDuplicateShard reports a shard id listed twice.
	ErrDuplicateShard = errors.New("duplicate shard")
)

// Options configures a Cluster.
type Options struct {
	// Shards are the member ids. At least one is required; an id
	// names the shard's metrics and netsim node, so it is letters,
	// digits, '.', '_' and '-'.
	Shards []string
	// Replication is how many shards hold each object (default 1; must
	// not exceed the member count).
	Replication int
	// Compress stores objects gzip-compressed on every shard, like a
	// single registry with Options.Compress.
	Compress bool
	// Telemetry, if set, is the registry the tier's shardreg.* metrics
	// publish into — per-shard object/byte gauges plus routing counters
	// — so fleet-wide snapshots reconcile the tier exactly. Nil gets a
	// private registry.
	Telemetry *telemetry.Registry
	// Topology, if set, attaches one node per shard and prices served
	// and backfilled bytes through that shard's WAN link — the
	// registry-side cost model of the extshard experiment.
	Topology *netsim.Topology
	// Read tunes the download side: load-balanced replica selection and
	// hedged requests. The zero value reads in strict rank order, the
	// pre-hedging behavior.
	Read ReadOptions
}

// Member states. A down shard takes no reads and no uploads; a filling
// one, which ReviveShard is backfilling, takes uploads but no reads.
const (
	live int32 = iota
	filling
	down
)

// shard is one cluster member: an in-process Gear registry, its
// topology links, and its state (live, filling or down).
type shard struct {
	id    string
	reg   *gearregistry.Registry
	links *netsim.NodeLinks
	state atomic.Int32

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

// serving reports whether the shard takes reads.
func (s *shard) serving() bool { return s.state.Load() == live }

// downErr is the typed unavailability error for this shard.
func (s *shard) downErr() error {
	return fmt.Errorf("shardreg: shard %s: %w", s.id, ErrShardDown)
}

// charge prices one request of wire bytes served by (or moved through)
// this shard on its WAN link, when a topology is attached.
func (s *shard) charge(wire int64) {
	if s.links != nil {
		s.links.WAN.Transfer(1, wire)
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
// use: ring and shards are never written after New.
type Cluster struct {
	opts Options
	tele *telemetry.Registry

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

// validateShardID keeps a shard id to what can name a telemetry metric
// (shardreg.shard.<id>.*) and a netsim node: letters, digits, '.', '_'
// and '-', at most 64 of them.
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
	tele := opts.Telemetry
	if tele == nil {
		tele = telemetry.NewRegistry()
	}
	c := &Cluster{
		opts:         opts,
		tele:         tele,
		ring:         NewRing(DefaultVirtualNodes),
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
		s := &shard{
			id:        id,
			reg:       gearregistry.New(gearregistry.Options{Compress: opts.Compress}),
			objects:   tele.Gauge("shardreg.shard." + id + ".objects"),
			bytes:     tele.Gauge("shardreg.shard." + id + ".bytes"),
			reads:     tele.Counter("shardreg.shard." + id + ".reads"),
			readBytes: tele.Counter("shardreg.shard." + id + ".read.bytes"),
		}
		if opts.Topology != nil {
			s.links = opts.Topology.Node(id)
		}
		c.ring.Add(id)
		c.shards[id] = s
	}
	c.shardsGauge.Set(int64(len(c.shards)))
	c.replGauge.Set(int64(opts.Replication))
	return c, nil
}

// Shards lists member ids in sorted order.
func (c *Cluster) Shards() []string { return c.ring.Shards() }

// Replicas returns the shards responsible for fp in replica order — the
// routing decision, exposed for tests and operators.
func (c *Cluster) Replicas(fp hashing.Fingerprint) []string {
	return c.ring.Lookup(fp, c.opts.Replication)
}

// shardByID resolves a member or reports ErrUnknownShard.
func (c *Cluster) shardByID(id string) (*shard, error) {
	s, ok := c.shards[id]
	if !ok {
		return nil, fmt.Errorf("shardreg: shard %q: %w", id, ErrUnknownShard)
	}
	return s, nil
}

// replicaChain resolves fp's replica shards in ring order.
func (c *Cluster) replicaChain(fp hashing.Fingerprint) []*shard {
	ids := c.ring.Lookup(fp, c.opts.Replication)
	chain := make([]*shard, len(ids))
	for i, id := range ids {
		chain[i] = c.shards[id]
	}
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

// Upload implements gearregistry.Store: the object lands on every
// replica that is not down. Success needs at least one accepting shard;
// writing fewer copies than the replication factor counts as a degraded
// upload.
func (c *Cluster) Upload(fp hashing.Fingerprint, data []byte) error {
	c.uploads.Inc()
	if err := fp.Validate(); err != nil {
		return fmt.Errorf("shardreg: upload: %w", err)
	}
	chain := c.replicaChain(fp)
	stored := 0
	var lastErr error
	var missed []*shard
	for _, s := range chain {
		if s.state.Load() == down {
			lastErr = s.downErr()
			missed = append(missed, s)
			continue
		}
		if err := s.reg.Upload(fp, data); err != nil {
			if permanentUpload(err) {
				return fmt.Errorf("shardreg: upload %s: %w", fp, err)
			}
			lastErr = err
			continue
		}
		s.sync()
		stored++
	}
	// A replica a revive began filling meanwhile may have listed its
	// peers before the copies above landed, so it gets this one too.
	for _, s := range missed {
		if s.state.Load() != down && s.reg.Upload(fp, data) == nil {
			s.sync()
			stored++
		}
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
	chains := make([][]*shard, len(fps))
	for i, fp := range fps {
		chains[i] = c.replicaChain(fp)
		if balance {
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
			for rank[i] < len(chains[i]) && !chains[i][rank[i]].serving() {
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
		verdicts, err := s.reg.QueryBatch(sub)
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
		ps, w, err := s.reg.DownloadBatch(sub)
		if err != nil {
			return err
		}
		for k, i := range idxs {
			payloads[i] = ps[k]
		}
		wire += w
		c.priceBatch(s, idxs, w, alt)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return payloads, wire, nil
}

// KillShard marks a member dead: every routed operation fails over past
// it, and uploads skip it. Its data is retained for ReviveShard. Kill
// models failure; membership and placement do not change.
func (c *Cluster) KillShard(id string) error {
	s, err := c.shardByID(id)
	if err != nil {
		return err
	}
	if s.state.Swap(down) == live {
		c.downGauge.Add(1)
	}
	return nil
}

// ReviveShard brings a killed member back with its data intact. The
// shard takes uploads again at once. It then backfills the writes it
// missed while down: each object that its replica sets assign it, that
// a live replica holds and that it lacks is copied in, priced out of the
// source's link and into its own, and counted in shardreg.rebalance.*.
// Only then does it serve reads, so a batch, to which a missing object
// is a permanent error, never meets it half filled. Reviving a member
// that is not down does nothing.
func (c *Cluster) ReviveShard(id string) error {
	s, err := c.shardByID(id)
	if err != nil || !s.state.CompareAndSwap(down, filling) {
		return err
	}
	for _, srcID := range c.ring.Shards() {
		src := c.shards[srcID]
		if !src.serving() {
			continue
		}
		for _, fp := range src.reg.Fingerprints() {
			if !slices.Contains(c.Replicas(fp), id) {
				continue
			}
			if held, _ := s.reg.Query(fp); held {
				continue
			}
			payload, wire, err := src.reg.Download(fp)
			if err == nil {
				err = s.reg.Upload(fp, payload)
			}
			if err != nil {
				s.state.CompareAndSwap(filling, down)
				return fmt.Errorf("shardreg: revive %s: backfill %s: %w", id, fp, err)
			}
			c.rebalObjects.Inc()
			c.rebalBytes.Add(wire)
			src.charge(wire)
			s.charge(wire)
		}
	}
	s.sync()
	if s.state.CompareAndSwap(filling, live) {
		c.downGauge.Add(-1)
	}
	return nil
}

// Seed copies every object of src into the tier under its placement —
// the migration step from a single-node registry to the
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

// BusiestShard returns the member the ring routes the most stored
// objects to first — the load a single-shard failure re-routes to
// replicas, so the worst-case member to kill or slow. (OwnedShare is the
// hash-space analogue; this counts the actual objects.) Ties go to the
// lowest id; an empty tier returns "".
func (c *Cluster) BusiestShard() string {
	load := make(map[string]int, len(c.shards))
	seen := make(map[hashing.Fingerprint]bool)
	for _, s := range c.shards {
		for _, fp := range s.reg.Fingerprints() {
			if seen[fp] {
				continue
			}
			seen[fp] = true
			if ids := c.ring.Lookup(fp, 1); len(ids) == 1 {
				load[ids[0]]++
			}
		}
	}
	busiest, most := "", -1
	for _, id := range c.ring.Shards() { // sorted, so ties keep the lowest id
		if load[id] > most {
			busiest, most = id, load[id]
		}
	}
	return busiest
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
	RebalancedObjects int64        `json:"rebalancedObjects"` // copies revives backfilled
	RebalancedBytes   int64        `json:"rebalancedBytes"`
	Reads             int64        `json:"reads"`           // read requests served across the tier
	BalancedReads     int64        `json:"balancedReads"`   // p2c picks that diverged from rank order
	HedgesFired       int64        `json:"hedgesFired"`     // hedged requests issued
	HedgesWon         int64        `json:"hedgesWon"`       // hedges whose backup finished first
	HedgeWasteBytes   int64        `json:"hedgeWasteBytes"` // cancelled-loser egress
}

// Stats returns a snapshot of the tier.
func (c *Cluster) Stats() Stats {
	share := c.ring.OwnedShare()
	st := Stats{
		Replication:       c.opts.Replication,
		VirtualNodes:      DefaultVirtualNodes,
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
			Down:         !s.serving(),
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
