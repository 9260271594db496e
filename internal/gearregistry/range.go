package gearregistry

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/wire"
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
	out, _, err := r.appendRange(nil, fp, off, n)
	if err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

// appendRange is DownloadRange into dst's memory, when dst has room for
// the range, and also tells the object's uncompressed size.
func (r *Registry) appendRange(dst []byte, fp hashing.Fingerprint, off, n int64) (out []byte, size int64, err error) {
	r.ranges.Inc()
	if err := fp.Validate(); err != nil {
		return nil, 0, fmt.Errorf("gearregistry: range: %w", err)
	}
	if off < 0 || n <= 0 {
		return nil, 0, fmt.Errorf("gearregistry: range [%d,+%d): %w", off, n, ErrBadRange)
	}
	r.mu.RLock()
	stored, ok := r.objects[fp]
	size = r.logical[fp]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("gearregistry: %s: %w", fp, ErrNotFound)
	}
	// off+n can overflow; size-off, with off <= size, cannot.
	if off > size || n > size-off {
		return nil, 0, fmt.Errorf("gearregistry: range [%d,+%d) of %d-byte %s: %w",
			off, n, size, fp, ErrBadRange)
	}
	if !r.opts.Compress {
		return append(dst[:0], stored[off:off+n]...), size, nil
	}
	if out, err = tarstream.GunzipRange(dst, stored, off, n); err != nil {
		return nil, 0, fmt.Errorf("gearregistry: range %s: %w", fp, err)
	}
	return out, size, nil
}

// maxPooledRange is the largest buffer a range reply hands on to the
// next one. Ranges are read of files a chunking policy left whole, and
// index.CDCChunks at a 256 KiB target leaves whole a file of up to 1 MiB:
// a range of anything larger is served, and its buffer let go.
const maxPooledRange = 1 << 20

// rangeBuffers hold a range from when it is inflated to when its reply
// has been written.
var rangeBuffers = sync.Pool{New: func() any { return new([]byte) }}

// serveRange answers the range verb: the slice is inflated to the CRC
// behind it before the first byte of the reply goes out.
func (r *Registry) serveRange(w http.ResponseWriter, fp hashing.Fingerprint, off, n int64) error {
	buf := rangeBuffers.Get().(*[]byte)
	defer rangeBuffers.Put(buf)
	payload, total, err := r.appendRange(*buf, fp, off, n)
	if err != nil {
		return err
	}
	wire.Respond(w, "application/octet-stream", fmt.Appendf(nil, "%s %d %d %d\n", fp, off, n, total), payload)
	if cap(payload) <= maxPooledRange {
		*buf = payload
	}
	return nil
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
