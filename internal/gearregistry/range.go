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

// DownloadRange implements RangeDownloader. A compressed pool stores an
// object as a segmented gzip stream (tarstream.GzipFrom), and a range
// inflates only the 64 KiB segments it overlaps, each checked against
// its CRC: its CPU and memory go with n, not with the object.
func (r *Registry) DownloadRange(fp hashing.Fingerprint, off, n int64) ([]byte, int64, error) {
	out, _, _, err := r.appendRange(nil, fp, off, n, false)
	if err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

// appendRange is DownloadRange into dst's memory, when dst has room for
// the range, and also tells the object's uncompressed size. For the wire
// it may instead be a gzip stream of the range (gzipped), when the pool
// compresses and the segments the range lies in were stored compressed
// (tarstream.AppendRange).
func (r *Registry) appendRange(dst []byte, fp hashing.Fingerprint, off, n int64, forWire bool) (out []byte, size int64, gzipped bool, err error) {
	r.ranges.Inc()
	if err := fp.Validate(); err != nil {
		return nil, 0, false, fmt.Errorf("gearregistry: range: %w", err)
	}
	if off < 0 || n <= 0 {
		return nil, 0, false, fmt.Errorf("gearregistry: range [%d,+%d): %w", off, n, ErrBadRange)
	}
	r.mu.RLock()
	o, ok := r.objects[fp]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, false, fmt.Errorf("gearregistry: %s: %w", fp, ErrNotFound)
	}
	// off+n can overflow; size-off, with off <= size, cannot.
	if off > o.size || n > o.size-off {
		return nil, 0, false, fmt.Errorf("gearregistry: range [%d,+%d) of %d-byte %s: %w",
			off, n, o.size, fp, ErrBadRange)
	}
	switch {
	case !r.opts.Compress:
		out = append(dst[:0], o.stored[off:off+n]...)
	case forWire:
		out, gzipped, err = tarstream.AppendRange(dst[:0], o.stored, o.segs, off, n)
	default:
		out, err = tarstream.GunzipRange(dst, o.stored, o.segs, off, n)
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("gearregistry: range %s: %w", fp, err)
	}
	return out, o.size, gzipped, nil
}

// maxPooledRange is the largest buffer a range reply hands on to the
// next one. Ranges are read of files a chunking policy left whole, and
// index.CDCChunks at a 256 KiB target leaves whole a file of up to 1 MiB:
// a range of anything larger is served, and its buffer let go.
const maxPooledRange = 1 << 20

// rangeBuffers hold a range reply's slice from when it is made to when
// the reply has been written.
var rangeBuffers = sync.Pool{New: func() any { return new([]byte) }}

// serveRange answers the range verb. The slice is inflated, and its
// segments checked, before the first byte of the reply goes out; it is
// sent gzip-framed when the segments it lies in were stored compressed
// and its stream is smaller, and raw otherwise.
func (r *Registry) serveRange(w http.ResponseWriter, fp hashing.Fingerprint, off, n int64) error {
	buf := rangeBuffers.Get().(*[]byte)
	defer rangeBuffers.Put(buf)
	body, total, gzipped, err := r.appendRange(*buf, fp, off, n, true)
	if err != nil {
		return err
	}
	h := rangeHeader{fp: fp, off: off, n: n, total: total, stored: int64(len(body)), gzipped: gzipped}
	wire.Respond(w, "application/octet-stream", h.append(nil), body)
	if cap(body) <= maxPooledRange {
		*buf = body
	}
	return nil
}
