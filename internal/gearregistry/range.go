package gearregistry

import (
	"errors"
	"fmt"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/tarstream"
)

// The range verb: the fourth Gear file interface, added for chunked
// lazy loading. Where Download moves a whole object, DownloadRange
// moves exactly the [off, off+n) slice of its uncompressed content —
// what a viewer faulting one read's worth of a big model file needs.
// For lazy loading the range request is the protocol, not an extension
// of it, so the verb is part of Store; whether a reader uses it is
// policy (store.Options.RangeReads).

// ErrBadRange reports a range that is malformed or does not fit the
// object: negative offset, non-positive length, or off+n past the end.
// Ranges are strict — a clamped read would silently hand the caller
// fewer bytes than it asked for.
var ErrBadRange = errors.New("invalid byte range")

// RangeDownloader is the byte-range part of Store.
type RangeDownloader interface {
	// DownloadRange fetches the [off, off+n) slice of the object's
	// uncompressed content. wireBytes is what actually crossed the wire
	// — n for an in-process registry, the framed body for HTTP. The
	// whole range must fit inside the object or ErrBadRange is
	// returned.
	DownloadRange(fp hashing.Fingerprint, off, n int64) (payload []byte, wireBytes int64, err error)
}

// DownloadRange implements RangeDownloader. Compressed pools inflate
// server-side and serve the raw slice, so the wire carries exactly n
// bytes — a range of a gzip stream is not independently decodable. The
// object is streamed through the inflater, never held whole: the range
// costs n bytes of memory, though still the whole object's CPU, since
// the stream is inflated to its end for the CRC behind it.
func (r *Registry) DownloadRange(fp hashing.Fingerprint, off, n int64) ([]byte, int64, error) {
	r.ranges.Inc()
	if err := fp.Validate(); err != nil {
		return nil, 0, fmt.Errorf("gearregistry: range: %w", err)
	}
	if off < 0 || n <= 0 {
		return nil, 0, fmt.Errorf("gearregistry: range [%d,+%d): %w", off, n, ErrBadRange)
	}
	r.mu.RLock()
	stored, ok := r.objects[fp]
	size := r.logical[fp]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("gearregistry: %s: %w", fp, ErrNotFound)
	}
	// off+n can overflow; size-off, with off <= size, cannot.
	if off > size || n > size-off {
		return nil, 0, fmt.Errorf("gearregistry: range [%d,+%d) of %d-byte %s: %w",
			off, n, size, fp, ErrBadRange)
	}
	if r.opts.Compress {
		out, err := tarstream.GunzipRange(stored, off, n)
		if err != nil {
			return nil, 0, fmt.Errorf("gearregistry: range %s: %w", fp, err)
		}
		return out, n, nil
	}
	out := make([]byte, n)
	copy(out, stored[off:off+n])
	return out, n, nil
}

// DownloadRange implements RangeDownloader with retries.
func (r *RetryStore) DownloadRange(fp hashing.Fingerprint, off, n int64) ([]byte, int64, error) {
	var payload []byte
	var wire int64
	err := r.do(nil, func() error {
		var err error
		payload, wire, err = r.inner.DownloadRange(fp, off, n)
		return err
	})
	return payload, wire, err
}
