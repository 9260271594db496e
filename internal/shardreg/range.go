package shardreg

import (
	"errors"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
)

// Range reads over the tier. Cluster implements
// gearregistry.RangeDownloader, so a chunk-faulting viewer works against
// a sharded tier exactly as against a single registry: ranges take the
// same walk as whole-object reads (readOne: same ring lookup, same
// power-of-two-choices ordering, same failover past dead shards), and
// the serving shard's WAN link prices the transfer as one request of
// its wire bytes, never hedged (priceBatch); the store's fetch window
// above this layer retries through failover instead.

// rangePermanent reports range errors no other replica can fix:
// replicas store identical bytes, so a range that does not fit on one
// shard does not fit anywhere.
func rangePermanent(err error) bool {
	return errors.Is(err, gearregistry.ErrBadRange) ||
		errors.Is(err, hashing.ErrMalformed)
}

// DownloadRange implements gearregistry.RangeDownloader with replica
// failover. Out-of-bounds ranges fail immediately — every replica
// stores the same bytes, so no failover can satisfy them.
func (c *Cluster) DownloadRange(fp hashing.Fingerprint, off, n int64) ([]byte, int64, error) {
	c.ranges.Inc()
	payload, wire, _, err := c.readOne("range", fp, true, func(st gearregistry.Store) ([]byte, int64, error) {
		return st.DownloadRange(fp, off, n)
	})
	return payload, wire, err
}
