package shardreg

import (
	"errors"
	"fmt"
	"time"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
)

// Range reads over the tier. Cluster implements
// gearregistry.RangeDownloader, so a chunk-faulting viewer works against
// a sharded tier exactly as against a single registry: ranges route by
// the same replica chain as whole-object reads (same ring lookup, same
// power-of-two-choices ordering, same failover past dead shards), and
// the serving shard's WAN link prices the transfer as a range request —
// per-request overhead plus RangeOverhead, then exactly n payload bytes.
//
// Ranges are never hedged. They are the small, overhead-dominated tail
// of the read mix; mirroring one would double the fixed per-request
// cost that already dominates it, and the store's fetch window above
// this layer retries through failover instead.

// rangePermanent reports range errors no other replica can fix:
// replicas store identical bytes, so a range that does not fit on one
// shard does not fit anywhere.
func rangePermanent(err error) bool {
	return errors.Is(err, gearregistry.ErrBadRange) ||
		errors.Is(err, hashing.ErrMalformed)
}

// DownloadRange implements gearregistry.RangeDownloader with replica
// failover; see DownloadRangeTimed for the latency-returning form.
func (c *Cluster) DownloadRange(fp hashing.Fingerprint, off, n int64) ([]byte, int64, error) {
	payload, wire, _, err := c.DownloadRangeTimed(fp, off, n)
	return payload, wire, err
}

// DownloadRangeTimed is DownloadRange plus the modeled client-observed
// latency under the attached topology (0 without one). Dead or erroring
// shards are skipped and counted as failovers; a replica that simply
// does not hold the object is tried past without a failover tick, and
// out-of-bounds ranges fail immediately — every replica stores the same
// bytes, so no failover can satisfy them.
func (c *Cluster) DownloadRangeTimed(fp hashing.Fingerprint, off, n int64) ([]byte, int64, time.Duration, error) {
	c.ranges.Inc()
	if err := fp.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("shardreg: range: %w", err)
	}
	chain := c.replicaChain(fp)
	if len(chain) == 0 {
		return nil, 0, 0, fmt.Errorf("shardreg: range %s: %w", fp, ErrNoShards)
	}
	chain = c.readOrder(fp, chain)
	var lastErr error
	for _, s := range chain {
		if s.down.Load() {
			c.failovers.Inc()
			lastErr = s.downErr()
			continue
		}
		s.inflight.Add(1)
		payload, wire, err := s.store.DownloadRange(fp, off, n)
		if err != nil {
			s.inflight.Add(-1)
			if rangePermanent(err) {
				return nil, 0, 0, fmt.Errorf("shardreg: range %s: %w", fp, err)
			}
			if !errors.Is(err, gearregistry.ErrNotFound) {
				c.failovers.Inc()
			}
			lastErr = err
			continue
		}
		cost := c.priceRange(s, wire)
		s.inflight.Add(-1)
		return payload, wire, cost, nil
	}
	return nil, 0, 0, fmt.Errorf("shardreg: range %s: %w", fp, lastErr)
}

// priceRange prices one served range on s's link as a range transfer
// and returns the client-observed latency. Completed ranges feed the
// same per-shard EWMA and cluster latency model as whole reads, so the
// balancer's load picture covers the chunk-faulting traffic too.
func (c *Cluster) priceRange(s *shard, wire int64) time.Duration {
	if s.links == nil {
		s.countRead(1, wire)
		return 0
	}
	cost, err := s.links.WAN.TransferRangeQuote(1, wire)
	if err != nil {
		s.countRead(1, wire)
		return 0
	}
	s.links.WAN.RecordTransfer(1, wire, cost)
	c.observe(s, cost, wire)
	s.countRead(1, wire)
	return cost
}
