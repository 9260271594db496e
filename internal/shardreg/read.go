package shardreg

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
)

// ReadOptions tunes the download side of the tier. Uploads and
// backfills always keep ring order, so placement is bit-identical
// whatever the read policy; with the zero value the read path
// degenerates exactly to rank-order replica failover.
type ReadOptions struct {
	// Balance picks the serving replica by power-of-two-choices over the
	// live replicas instead of always the lowest rank: two candidates
	// are drawn deterministically from the fingerprint, and the one with
	// the lower load score — EWMA service latency × (1 + in-flight
	// requests) — serves. One slow or hot shard stops setting the tail
	// for every object it owns.
	Balance bool
	// Hedge issues a mirrored request to the next-best replica when the
	// first one runs past the hedge delay, takes whichever completes
	// first, and cancels the loser, charging only the bytes it moved
	// before cancellation. Batch sub-requests hedge per shard partition.
	// The delay is adaptive: 3× the expected cost of the read under
	// smoothed per-request and per-byte latency EWMAs, a cheap p95 proxy
	// in the tail-at-scale tradition — only reads running well past what
	// their size predicts pay the second copy.
	Hedge bool
	// Seed perturbs the per-fingerprint candidate draw so distinct
	// clusters explore different replica pairs. Zero uses a fixed
	// default stream.
	Seed uint64
}

// ewmaShift is the EWMA smoothing divisor (alpha = 1/8), the same gain
// TCP uses for its smoothed RTT — stable under jitter, fast enough to
// notice a straggler within a handful of reads.
const ewmaShift = 3

// score is the shard's load estimate the balancer compares: smoothed
// observed service latency scaled by concurrent occupancy. A shard that
// has never served reads scores 0, so cold shards attract probes.
func (s *shard) score() float64 {
	return float64(s.ewma.Load()) * float64(1+s.inflight.Load())
}

// countRead attributes n served read requests of wire bytes to this
// shard's read-share telemetry.
func (s *shard) countRead(n int, wire int64) {
	s.reads.Add(int64(n))
	s.readBytes.Add(wire)
}

// observe folds one completed download — its latency and the wire bytes
// it moved — into the shard's EWMA and the cluster's smoothed latency
// model (the adaptive hedge clock): srtt tracks per-request cost, and
// srttPB tracks per-byte cost so the trigger scales with read size.
func (c *Cluster) observe(s *shard, cost time.Duration, wire int64) {
	if cost <= 0 {
		return
	}
	c.observeCensored(s, cost)
	c.latHist.ObserveDuration(cost)
	c.latMu.Lock()
	if c.srtt == 0 {
		c.srtt = cost
	} else {
		c.srtt += (cost - c.srtt) >> ewmaShift
	}
	if wire > 0 {
		pb := float64(cost) / float64(wire)
		if c.srttPB == 0 {
			c.srttPB = pb
		} else {
			c.srttPB += (pb - c.srttPB) / (1 << ewmaShift)
		}
	}
	c.latMu.Unlock()
}

// observeCensored folds a cancelled hedge loser's busy time into the
// shard's EWMA only. The attempt never completed, so its true latency
// is unknown — but it was busy at least until cancellation, and that
// lower bound is what keeps the balancer learning about a slow replica
// whose reads keep being rescued by hedges. The cluster's smoothed
// latency (the hedge clock) tracks completed reads only, so censored
// samples never inflate the trigger itself.
func (c *Cluster) observeCensored(s *shard, busy time.Duration) {
	if busy <= 0 {
		return
	}
	for {
		old := s.ewma.Load()
		next := int64(busy)
		if old != 0 {
			next = old + (int64(busy)-old)>>ewmaShift
		}
		if s.ewma.CompareAndSwap(old, next) {
			break
		}
	}
}

// hedgeTrigger returns the hedge point for a read of n requests moving
// wire bytes: 3× the expected cost of that read under the smoothed
// latency model — whichever of the per-request and per-byte estimates
// is larger, so the trigger tracks the overhead floor on tiny reads and
// scales with size on big ones (a large healthy download is not a
// straggler). Zero (nothing observed yet) disarms hedging.
func (c *Cluster) hedgeTrigger(n int, wire int64) time.Duration {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	t := c.srtt * time.Duration(n)
	if pb := time.Duration(c.srttPB * float64(wire)); pb > t {
		t = pb
	}
	return 3 * t
}

// readOrder applies power-of-two-choices to fp's replica chain: two
// candidate ranks are drawn from the fingerprint hash (stream-split by
// the configured seed), and the lower-scored candidate moves to the
// front; the rest keep rank order, so failover past the choice is
// unchanged. With balancing off, fewer than two live replicas, or a
// score tie at rank 0, the chain is returned as-is.
func (c *Cluster) readOrder(fp hashing.Fingerprint, chain []*shard) []*shard {
	if !c.opts.Read.Balance || len(chain) < 2 {
		return chain
	}
	live := make([]int, 0, len(chain))
	for i, s := range chain {
		if s.serving() {
			live = append(live, i)
		}
	}
	if len(live) < 2 {
		return chain
	}
	h := mix64(hash64(string(fp)) ^ c.opts.Read.Seed)
	a := live[int(h%uint64(len(live)))]
	b := live[int((h>>32)%uint64(len(live)))]
	if a == b {
		// Same draw twice: take the candidate's live successor so the
		// comparison is never degenerate.
		b = live[(int(h%uint64(len(live)))+1)%len(live)]
	}
	best := a
	if sa, sb := chain[a].score(), chain[b].score(); sb < sa || (sb == sa && b < a) {
		best = b
	}
	if best == 0 {
		return chain
	}
	c.readBalanced.Inc()
	out := make([]*shard, 0, len(chain))
	out = append(out, chain[best])
	for i, s := range chain {
		if i != best {
			out = append(out, s)
		}
	}
	return out
}

// nextLive returns the first live shard at or past from, or nil.
func nextLive(chain []*shard, from int) *shard {
	for _, s := range chain[from:] {
		if s.serving() {
			return s
		}
	}
	return nil
}

// priceBatch prices a served sub-batch of n requests totalling w bytes
// on s's link and returns the client-observed latency, hedging the
// whole sub-batch when its mean per-request cost runs past the hedge
// delay and every index has a live alternate replica. It is the tier's
// one pricing body and one hedge model: a single-object download is
// priced as a batch of one, and so is a range — one request of exactly
// its wire bytes — which is never hedged (alt is nil): ranges are the
// small, overhead-dominated tail of the read mix, and mirroring one
// would double the fixed per-request cost that already dominates it.
// Completed reads of either kind feed the same per-shard EWMA and
// cluster latency model, so the balancer's load picture covers the
// chunk-faulting traffic too. The hedge is modeled analytically under the virtual clock: both
// sides' costs are quoted, the winner records its full transfer, and
// the loser records only the prefix it moved before cancellation — that
// prefix is the hedge's extra egress, tracked in
// shardreg.hedge.waste.bytes. Replicas store identical
// (deterministically compressed) bytes, so the payload is the same
// whichever side wins and client bytes stay at exact parity. The
// alternate side splits by each index's next replica and runs its
// groups in parallel, so its completion is the delay plus the slowest
// group. Per-index wire sizes are not visible at this layer; groups are
// priced on their proportional share of the batch volume.
func (c *Cluster) priceBatch(s *shard, idxs []int, w int64, alt func(int) *shard) time.Duration {
	n := len(idxs)
	if s.links == nil {
		s.countRead(n, w)
		return 0
	}
	costP, err := s.links.WAN.TransferQuote(n, w)
	if err != nil {
		s.countRead(n, w)
		return 0
	}
	delay := c.hedgeTrigger(n, w)
	if alt != nil && c.opts.Read.Hedge && delay > 0 && costP > delay {
		if groups, order := altGroups(idxs, alt, n); order != nil {
			c.hedgeFired.Inc()
			type quoted struct {
				a    *shard
				ng   int
				wg   int64
				cost time.Duration
			}
			qs := make([]quoted, 0, len(order))
			var rest = w
			worst := time.Duration(0)
			ok := true
			for gi, a := range order {
				ng := groups[a]
				wg := w * int64(ng) / int64(n)
				if gi == len(order)-1 {
					wg = rest
				}
				rest -= wg
				costG, errG := a.links.WAN.TransferQuote(ng, wg)
				if errG != nil {
					ok = false
					break
				}
				if costG > worst {
					worst = costG
				}
				qs = append(qs, quoted{a, ng, wg, costG})
			}
			if ok {
				altDone := delay + worst
				if altDone < costP {
					// The alternate set wins; the primary sub-batch is
					// cancelled altDone in.
					c.hedgeWon.Inc()
					for _, q := range qs {
						q.a.links.WAN.RecordTransfer(q.ng, q.wg, q.cost)
						if q.ng > 0 {
							c.observe(q.a, q.cost/time.Duration(q.ng), q.wg/int64(q.ng))
						}
						q.a.countRead(q.ng, q.wg)
					}
					partial := s.links.WAN.PrefixBytes(n, w, altDone, costP)
					s.links.WAN.RecordTransfer(n, partial, altDone)
					c.hedgeWaste.Add(partial)
					if n > 0 {
						c.observeCensored(s, altDone/time.Duration(n))
					}
					return altDone
				}
				// Primary wins; the alternates started delay in and are
				// cancelled when it completes.
				busy := costP - delay
				for _, q := range qs {
					partial := q.a.links.WAN.PrefixBytes(q.ng, q.wg, busy, q.cost)
					q.a.links.WAN.RecordTransfer(q.ng, partial, busy)
					c.hedgeWaste.Add(partial)
				}
			}
		}
	}
	s.links.WAN.RecordTransfer(n, w, costP)
	if n > 0 {
		c.observe(s, costP/time.Duration(n), w/int64(n))
	}
	s.countRead(n, w)
	return costP
}

// altGroups partitions idxs by each index's next live replica with an
// attached link, in shard-id order (deterministic quoting order keeps
// jitter streams reproducible). It returns nils unless every index has
// one — a sub-batch can only be hedged whole.
func altGroups(idxs []int, alt func(int) *shard, n int) (map[*shard]int, []*shard) {
	groups := make(map[*shard]int)
	var order []*shard
	for _, i := range idxs {
		a := alt(i)
		if a == nil || a.links == nil {
			return nil, nil
		}
		if _, ok := groups[a]; !ok {
			order = append(order, a)
		}
		groups[a]++
	}
	if len(order) == 0 {
		return nil, nil
	}
	sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
	return groups, order
}

// DownloadTimed is Download plus the modeled client-observed latency of
// the read under the attached topology (0 without one) — what the
// latency-distribution experiments sample. Replica selection follows
// ReadOptions; failover past dead or erroring shards matches Download
// exactly.
func (c *Cluster) DownloadTimed(fp hashing.Fingerprint) ([]byte, int64, time.Duration, error) {
	c.downloads.Inc()
	return c.readOne("download", fp, false, func(st gearregistry.Store) ([]byte, int64, error) {
		return st.Download(fp)
	})
}

// readOne is the tier's one single-read walk, behind Download and
// DownloadRange alike: the replica chain in read order, dead or erroring
// shards skipped and counted as failovers, a replica that simply does
// not hold the object tried past without a failover tick — so a
// tier-wide miss still reports ErrNotFound — and the serving shard's link
// pricing the transfer. A range (ranged) differs in the verb it calls, in
// failing at once on an error no replica can fix (rangePermanent), and in
// never being hedged. Single reads do not go through
// routeBatch, the way Query is a QueryBatch of one, for two reasons: in a
// batch ErrNotFound is permanent (batches are all-or-nothing) where here
// the next replica may hold the object, and the batch walk allocates per
// call what this one does not — scripts/bench_baseline.txt pins
// BenchmarkDownloadRankOrder at 48 B / 2 allocs and
// BenchmarkDownloadRange at 96 B / 4 allocs against
// BenchmarkDownloadBatch's 13 176 B / 248. Only the pricing is shared
// (priceBatch of one index).
func (c *Cluster) readOne(what string, fp hashing.Fingerprint, ranged bool, call func(gearregistry.Store) ([]byte, int64, error)) ([]byte, int64, time.Duration, error) {
	if err := fp.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("shardreg: %s: %w", what, err)
	}
	chain := c.readOrder(fp, c.replicaChain(fp))
	var lastErr error
	first := true
	for i, s := range chain {
		if !s.serving() {
			c.failovers.Inc()
			lastErr = s.downErr()
			continue
		}
		s.inflight.Add(1)
		payload, wire, err := call(s.reg)
		if err != nil {
			s.inflight.Add(-1)
			if ranged && rangePermanent(err) {
				return nil, 0, 0, fmt.Errorf("shardreg: %s %s: %w", what, fp, err)
			}
			if !errors.Is(err, gearregistry.ErrNotFound) {
				c.failovers.Inc()
			}
			lastErr = err
			first = false
			continue
		}
		// A read that has already failed on one replica is not hedged.
		var alt func(int) *shard
		if first && !ranged {
			alt = func(int) *shard { return nextLive(chain, i+1) }
		}
		cost := c.priceBatch(s, []int{0}, wire, alt)
		s.inflight.Add(-1)
		return payload, wire, cost, nil
	}
	return nil, 0, 0, fmt.Errorf("shardreg: %s %s: %w", what, fp, lastErr)
}
