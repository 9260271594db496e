// Package gearregistry implements the Gear Registry of the paper (§III-C,
// §IV): a content-addressed file server holding Gear files — regular file
// contents named by the MD5 fingerprint of their bytes. The paper backs
// this with MinIO and exposes three HTTP interfaces (query, upload,
// download); this package provides those three verbs plus their batched
// forms and the byte-range read — the six-verb Store contract — both
// in-process and over HTTP.
//
// Because objects are keyed by fingerprint, identical files from any
// image dedup to one stored copy, which is the mechanism behind the
// paper's 54% registry storage saving (Fig 7).
package gearregistry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/wire"
)

// Errors returned by Gear Registry operations.
var (
	ErrNotFound            = errors.New("gear file not found")
	ErrFingerprintMismatch = errors.New("content does not match fingerprint")
)

// Store is the Gear file protocol: the three verbs of §IV of the paper,
// the batched forms of query and download, and the byte-range read.
// Every store speaks all six, so callers call them and never probe.
type Store interface {
	// Query reports whether the Gear file is already stored; clients call
	// it before uploading so only absent files cross the wire.
	Query(fp hashing.Fingerprint) (bool, error)
	// Upload stores a Gear file under its fingerprint.
	Upload(fp hashing.Fingerprint, data []byte) error
	// Download fetches a Gear file by fingerprint. It returns the
	// uncompressed payload plus the number of bytes that crossed the
	// wire (smaller than the payload when the registry compresses
	// objects) — the quantity Fig 8's bandwidth study counts.
	Download(fp hashing.Fingerprint) (payload []byte, wireBytes int64, err error)
	BatchQuerier
	BatchDownloader
	RangeDownloader
}

// Options configures a Registry.
type Options struct {
	// Compress stores objects gzip-compressed ("Gear files can be further
	// compressed for higher space efficiency", §III-C).
	Compress bool
	// Telemetry, if set, is the registry gear.* metrics publish into —
	// the pool gauges and per-verb request counters the /metrics
	// endpoint exposes. Nil gets private, live handles.
	Telemetry *telemetry.Registry
}

// Registry is the in-process Gear file store. It is safe for concurrent
// use.
type Registry struct {
	opts Options
	tele *telemetry.Registry

	mu      sync.RWMutex
	objects map[hashing.Fingerprint]object

	// Telemetry handles are the stats' only storage: the pool gauges
	// are maintained under mu on every mutation (making Stats O(1)),
	// and the request counters tick per verb call.
	objectsGauge *telemetry.Gauge
	storedBytes  *telemetry.Gauge
	logicalBytes *telemetry.Gauge
	dedupHits    *telemetry.Counter
	queries      *telemetry.Counter
	uploads      *telemetry.Counter
	downloads    *telemetry.Counter
	ranges       *telemetry.Counter
}

var _ Store = (*Registry)(nil)

// object is one stored Gear file.
type object struct {
	stored []byte // as it crosses the wire: a segmented gzip stream when the pool compresses
	size   int64  // what it holds, uncompressed
	// segs is the stream's segment table, for a range read to seek by;
	// nil for an uncompressed object or a stream of one segment.
	segs []tarstream.Segment
}

// New returns an empty Gear Registry.
func New(opts Options) *Registry {
	tele := opts.Telemetry
	if tele == nil {
		tele = telemetry.NewRegistry()
	}
	return &Registry{
		opts:         opts,
		tele:         tele,
		objects:      make(map[hashing.Fingerprint]object),
		objectsGauge: tele.Gauge("gear.objects"),
		storedBytes:  tele.Gauge("gear.stored.bytes"),
		logicalBytes: tele.Gauge("gear.logical.bytes"),
		dedupHits:    tele.Counter("gear.dedup.hits"),
		queries:      tele.Counter("gear.query.requests"),
		uploads:      tele.Counter("gear.upload.requests"),
		downloads:    tele.Counter("gear.download.requests"),
		ranges:       tele.Counter("gear.range.requests"),
	}
}

// Telemetry returns the metrics registry this pool publishes into (the
// one from Options, or the private default).
func (r *Registry) Telemetry() *telemetry.Registry { return r.tele }

// StatsSnapshot returns the unified telemetry snapshot for this pool —
// what the /metrics endpoint serves.
func (r *Registry) StatsSnapshot() telemetry.Snapshot { return r.tele.Snapshot() }

// Snapshot implements telemetry.Snapshotter.
func (r *Registry) Snapshot() telemetry.Snapshot { return r.StatsSnapshot() }

// Query implements Store.
func (r *Registry) Query(fp hashing.Fingerprint) (bool, error) {
	r.queries.Inc()
	if err := fp.Validate(); err != nil {
		return false, fmt.Errorf("gearregistry: query: %w", err)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.objects[fp]
	return ok, nil
}

// Upload implements Store. Identical re-uploads are dropped and counted
// as dedup hits.
func (r *Registry) Upload(fp hashing.Fingerprint, data []byte) error {
	return r.UploadFrom(fp, bytes.NewReader(data), int64(len(data)))
}

// UploadFrom is Upload of a file that is still arriving: body is read
// to its end, once, and every byte goes to the fingerprint and into the
// form the pool stores — the gzip stream, or the bytes themselves —
// as it passes, so an upload costs one buffer of the stored size. size
// is how long the sender said the file is, negative if it did not; a
// file of any other length is refused. Nothing is admitted before the
// whole file has been judged, and a file the pool holds already is
// judged the same but not compressed again.
func (r *Registry) UploadFrom(fp hashing.Fingerprint, body io.Reader, size int64) error {
	r.uploads.Inc()
	if err := fp.Validate(); err != nil {
		return fmt.Errorf("gearregistry: upload: %w", err)
	}
	// A collision ID names no hash of its bytes: there is nothing to
	// verify it by.
	var sum *hashing.FingerprintWriter
	tee := io.Discard
	if len(fp) == 32 {
		sum = hashing.NewFingerprintWriter()
		tee = sum
	}
	r.mu.RLock()
	_, held := r.objects[fp]
	r.mu.RUnlock()

	var o object
	var err error
	switch {
	case held:
		o.size, err = tarstream.Copy(tee, body)
	case r.opts.Compress:
		o.stored, o.segs, o.size, err = tarstream.GzipFrom(body, tee)
	default:
		o.stored, err = tarstream.ReadAll(io.TeeReader(body, tee), declaredRoom(size))
		if o.size = int64(len(o.stored)); cap(o.stored) > len(o.stored)+1 {
			o.stored = bytes.Clone(o.stored)
		}
	}
	if err != nil {
		return fmt.Errorf("gearregistry: upload %s: %w", fp, err)
	}
	if size >= 0 && o.size != size {
		return wire.As(wire.ErrBadRequest, fmt.Errorf("gearregistry: upload %s: %d bytes, declared %d", fp, o.size, size))
	}
	if sum != nil && sum.Fingerprint() != fp {
		return fmt.Errorf("gearregistry: upload %s: %w", fp, ErrFingerprintMismatch)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.objects[fp]; ok {
		r.dedupHits.Inc()
		return nil
	} else if held {
		// Nothing was kept of a file the pool held, and it no longer does.
		return fmt.Errorf("gearregistry: upload %s: deleted while its duplicate was being read: %w", fp, ErrNotFound)
	}
	r.objects[fp] = o
	r.objectsGauge.Add(1)
	r.storedBytes.Add(int64(len(o.stored)))
	r.logicalBytes.Add(o.size)
	return nil
}

// declaredRoom is the memory a raw upload declared to be size bytes is
// read into: all of it at once up to eagerUpload, and beyond that never
// more than twice what has arrived, so a sender that lies about its
// length is given no more than one that does not declare it. An honest
// one ends up in a single buffer of the file's size.
func declaredRoom(size int64) tarstream.Room {
	return func(have int) int {
		if size < 0 {
			return 0
		}
		return int(min(size, max(2*int64(have), eagerUpload))) + 1
	}
}

const eagerUpload = 1 << 20

// Download implements Store.
func (r *Registry) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	r.downloads.Inc()
	if err := fp.Validate(); err != nil {
		return nil, 0, fmt.Errorf("gearregistry: download: %w", err)
	}
	r.mu.RLock()
	o, ok := r.objects[fp]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("gearregistry: %s: %w", fp, ErrNotFound)
	}
	wire := int64(len(o.stored))
	if r.opts.Compress {
		data, err := tarstream.Gunzip(o.stored)
		if err != nil {
			return nil, 0, fmt.Errorf("gearregistry: download %s: %w", fp, err)
		}
		return data, wire, nil
	}
	return o.stored, wire, nil
}

// Stored implements Pool: the stored bytes exactly as they would cross
// the wire, so compression survives transport. It is a download entry
// point of its own, so it ticks the request counter like Download does.
func (r *Registry) Stored(fp hashing.Fingerprint) (wire.Object, error) {
	r.downloads.Inc()
	if err := fp.Validate(); err != nil {
		return wire.Object{}, fmt.Errorf("gearregistry: download: %w", err)
	}
	r.mu.RLock()
	o, ok := r.objects[fp]
	r.mu.RUnlock()
	if !ok {
		return wire.Object{}, fmt.Errorf("gearregistry: %s: %w", fp, ErrNotFound)
	}
	return wire.Object{FP: fp, Stored: o.stored, Gzip: r.opts.Compress, Size: o.size}, nil
}

// Size returns the uncompressed size of a stored Gear file without
// fetching it — used by deploy-time planners.
func (r *Registry) Size(fp hashing.Fingerprint) (int64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	o, ok := r.objects[fp]
	if !ok {
		return 0, fmt.Errorf("gearregistry: %s: %w", fp, ErrNotFound)
	}
	return o.size, nil
}

// Fingerprints returns every stored fingerprint in sorted order — the
// enumeration that pool seeding and a revived shard's backfill walk.
// The slice is a snapshot; concurrent mutations are not reflected.
func (r *Registry) Fingerprints() []hashing.Fingerprint {
	r.mu.RLock()
	out := make([]hashing.Fingerprint, 0, len(r.objects))
	for fp := range r.objects {
		out = append(out, fp)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Delete removes a single object, returning the stored bytes freed.
// Deleting an absent object reports ErrNotFound. Retain is the
// reference-driven GC sweep; Delete drops one named object.
func (r *Registry) Delete(fp hashing.Fingerprint) (int64, error) {
	if err := fp.Validate(); err != nil {
		return 0, fmt.Errorf("gearregistry: delete: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.objects[fp]
	if !ok {
		return 0, fmt.Errorf("gearregistry: %s: %w", fp, ErrNotFound)
	}
	freed := int64(len(o.stored))
	r.logicalBytes.Add(-o.size)
	delete(r.objects, fp)
	r.objectsGauge.Add(-1)
	r.storedBytes.Add(-freed)
	return freed, nil
}

// Retain garbage-collects the pool: every object whose fingerprint is
// not in keep is removed. Registry operators run this after deleting
// index images (the paper's lifecycle decoupling means file deletion is
// a separate, reference-driven step). It returns the number of objects
// removed and the stored bytes freed.
func (r *Registry) Retain(keep map[hashing.Fingerprint]bool) (removed int, freed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for fp, o := range r.objects {
		if keep[fp] {
			continue
		}
		removed++
		freed += int64(len(o.stored))
		r.logicalBytes.Add(-o.size)
		delete(r.objects, fp)
	}
	r.objectsGauge.Add(-int64(removed))
	r.storedBytes.Add(-freed)
	return removed, freed
}

// Stats summarizes the Gear file pool: a view over the gear.* telemetry
// gauges, which are maintained on every mutation — O(1) now instead of
// a full pool walk.
type Stats struct {
	Objects      int   `json:"objects"`
	StoredBytes  int64 `json:"storedBytes"`  // on-disk (compressed if enabled)
	LogicalBytes int64 `json:"logicalBytes"` // sum of uncompressed sizes
	DedupHits    int64 `json:"dedupHits"`
}

// Stats returns a snapshot of pool usage.
func (r *Registry) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{
		Objects:      len(r.objects),
		StoredBytes:  r.storedBytes.Value(),
		LogicalBytes: r.logicalBytes.Value(),
		DedupHits:    r.dedupHits.Value(),
	}
}
