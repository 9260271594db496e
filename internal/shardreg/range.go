package shardreg

import (
	"errors"
	"time"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
)

// Range reads over the tier. Cluster implements
// gearregistry.RangeDownloader, so a chunk-faulting viewer works against
// a sharded tier exactly as against a single registry: ranges take the
// same walk as whole-object reads (readOne: same ring lookup, same
// power-of-two-choices ordering, same failover past dead shards), and
// the serving shard's WAN link prices the transfer as a range request,
// never hedged (priceBatch); the store's fetch window above this layer
// retries through failover instead.

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
// latency under the attached topology (0 without one). Out-of-bounds
// ranges fail immediately — every replica stores the same bytes, so no
// failover can satisfy them.
func (c *Cluster) DownloadRangeTimed(fp hashing.Fingerprint, off, n int64) ([]byte, int64, time.Duration, error) {
	c.ranges.Inc()
	return c.readOne("range", fp, true, func(st gearregistry.Store) ([]byte, int64, error) {
		return st.DownloadRange(fp, off, n)
	})
}
