// Package registry implements the Docker-side registry of the
// reproduction: a content-addressed store of gzip-compressed layer
// tarballs plus named manifests, deduplicated at layer granularity by
// SHA256 digest exactly as §II-B of the Gear paper describes. It stores
// both regular Docker images and the single-layer Gear-index images the
// converter produces (§III-C).
//
// The store is exposed two ways: in-process (Registry) and over HTTP
// (Handler/Client), mirroring the paper's deployment where the Docker
// Registry runs on a separate server from the daemon.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/telemetry"
)

// Errors returned by registry operations.
var (
	ErrManifestNotFound = errors.New("manifest not found")
	ErrBlobNotFound     = errors.New("blob not found")
	ErrDigestMismatch   = errors.New("blob does not match digest")
)

// Store is the registry protocol shared by the in-process Registry and
// the HTTP client: exactly what a Docker daemon needs to push and pull.
type Store interface {
	// PutManifest stores or replaces the manifest for its reference.
	PutManifest(m *imagefmt.Manifest) error
	// GetManifest fetches the manifest for name:tag.
	GetManifest(name, tag string) (*imagefmt.Manifest, error)
	// ListManifests returns all stored references, sorted.
	ListManifests() ([]string, error)
	// HasBlob reports whether the layer blob is already stored — the
	// layer-level dedup check clients run before uploading.
	HasBlob(d hashing.Digest) (bool, error)
	// PutBlob stores a compressed layer under its digest.
	PutBlob(d hashing.Digest, data []byte) error
	// GetBlob fetches a compressed layer by digest.
	GetBlob(d hashing.Digest) ([]byte, error)
}

// Registry is the in-process store. It is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	manifests map[string][]byte
	blobs     map[hashing.Digest][]byte

	// Telemetry handles are the stats' only storage; the registry.*
	// gauges are maintained under mu on every mutation, making Stats
	// O(1), and a shared telemetry registry sees them live.
	tele          *telemetry.Registry
	manifestCount *telemetry.Gauge
	manifestBytes *telemetry.Gauge
	blobCount     *telemetry.Gauge
	blobBytes     *telemetry.Gauge
	dedupHits     *telemetry.Counter
}

var _ Store = (*Registry)(nil)

// New returns an empty registry publishing registry.* metrics into a
// private telemetry registry.
func New() *Registry {
	reg := telemetry.NewRegistry()
	return &Registry{
		manifests:     make(map[string][]byte),
		blobs:         make(map[hashing.Digest][]byte),
		tele:          reg,
		manifestCount: reg.Gauge("registry.manifests"),
		manifestBytes: reg.Gauge("registry.manifest.bytes"),
		blobCount:     reg.Gauge("registry.blobs"),
		blobBytes:     reg.Gauge("registry.blob.bytes"),
		dedupHits:     reg.Counter("registry.dedup.hits"),
	}
}

// Snapshot implements telemetry.Snapshotter: the unified telemetry
// snapshot for this store, what the /metrics endpoint serves.
func (r *Registry) Snapshot() telemetry.Snapshot { return r.tele.Snapshot() }

// PutManifest implements Store.
func (r *Registry) PutManifest(m *imagefmt.Manifest) error {
	data, err := imagefmt.EncodeManifest(m)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ref := m.Reference()
	if old, ok := r.manifests[ref]; ok {
		r.manifestBytes.Add(-int64(len(old)))
	} else {
		r.manifestCount.Add(1)
	}
	r.manifests[ref] = data
	r.manifestBytes.Add(int64(len(data)))
	return nil
}

// GetManifest implements Store.
func (r *Registry) GetManifest(name, tag string) (*imagefmt.Manifest, error) {
	data, err := r.manifest(name, tag)
	if err != nil {
		return nil, err
	}
	return imagefmt.DecodeManifest(data)
}

// manifest returns the bytes PutManifest stored for name:tag, the
// manifest encoded. The caller must not mutate them.
func (r *Registry) manifest(name, tag string) ([]byte, error) {
	ref := name + ":" + tag
	r.mu.RLock()
	data, ok := r.manifests[ref]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("registry: %s: %w", ref, ErrManifestNotFound)
	}
	return data, nil
}

// ListManifests implements Store.
func (r *Registry) ListManifests() ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	refs := make([]string, 0, len(r.manifests))
	for ref := range r.manifests {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	return refs, nil
}

// HasBlob implements Store.
func (r *Registry) HasBlob(d hashing.Digest) (bool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.blobs[d]
	return ok, nil
}

// PutBlob implements Store. Content is verified against the digest;
// re-uploads of existing blobs are counted as dedup hits and dropped.
func (r *Registry) PutBlob(d hashing.Digest, data []byte) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("registry: put blob: %w", err)
	}
	if got := hashing.DigestBytes(data); got != d {
		return fmt.Errorf("registry: put blob %s: %w", d, ErrDigestMismatch)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.blobs[d]; ok {
		r.dedupHits.Inc()
		return nil
	}
	stored := make([]byte, len(data))
	copy(stored, data)
	r.blobs[d] = stored
	r.blobCount.Add(1)
	r.blobBytes.Add(int64(len(stored)))
	return nil
}

// GetBlob implements Store.
func (r *Registry) GetBlob(d hashing.Digest) ([]byte, error) {
	r.mu.RLock()
	data, ok := r.blobs[d]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("registry: blob %s: %w", d, ErrBlobNotFound)
	}
	return data, nil
}

// Stats summarizes registry storage, the quantity Fig 7 compares across
// Docker and Gear registries. It is a view over the registry.*
// telemetry gauges.
type Stats struct {
	Manifests     int   `json:"manifests"`
	Blobs         int   `json:"blobs"`
	BlobBytes     int64 `json:"blobBytes"`
	ManifestBytes int64 `json:"manifestBytes"`
	DedupHits     int64 `json:"dedupHits"`
}

// TotalBytes returns blob plus manifest storage.
func (s Stats) TotalBytes() int64 { return s.BlobBytes + s.ManifestBytes }

// Stats returns a snapshot of storage usage.
func (r *Registry) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{
		Manifests:     len(r.manifests),
		Blobs:         len(r.blobs),
		BlobBytes:     r.blobBytes.Value(),
		ManifestBytes: r.manifestBytes.Value(),
		DedupHits:     r.dedupHits.Value(),
	}
}

// Push uploads an image to any Store, skipping blobs the store already
// has (the client side of layer-level dedup). It returns the number of
// bytes actually uploaded.
func Push(s Store, img *imagefmt.Image) (int64, error) {
	if err := img.Validate(); err != nil {
		return 0, fmt.Errorf("registry: push: %w", err)
	}
	var uploaded int64
	for _, layer := range img.Layers {
		ok, err := s.HasBlob(layer.Digest)
		if err != nil {
			return uploaded, fmt.Errorf("registry: push %s: %w", img.Manifest.Reference(), err)
		}
		if ok {
			continue
		}
		if err := s.PutBlob(layer.Digest, layer.Tarball()); err != nil {
			return uploaded, fmt.Errorf("registry: push %s: %w", img.Manifest.Reference(), err)
		}
		uploaded += layer.Size
	}
	if err := s.PutManifest(img.Manifest); err != nil {
		return uploaded, fmt.Errorf("registry: push %s: %w", img.Manifest.Reference(), err)
	}
	return uploaded, nil
}

// Pull fetches a complete image from any Store.
func Pull(s Store, name, tag string) (*imagefmt.Image, error) {
	m, err := s.GetManifest(name, tag)
	if err != nil {
		return nil, fmt.Errorf("registry: pull %s:%s: %w", name, tag, err)
	}
	img := &imagefmt.Image{Manifest: m}
	for _, d := range m.Layers {
		data, err := s.GetBlob(d)
		if err != nil {
			return nil, fmt.Errorf("registry: pull %s:%s: %w", name, tag, err)
		}
		layer, err := imagefmt.NewLayerFromTarball(data, d, "")
		if err != nil {
			return nil, fmt.Errorf("registry: pull %s:%s: %w", name, tag, err)
		}
		img.Layers = append(img.Layers, layer)
	}
	// NewLayerFromTarball has just verified every blob against its digest.
	if err := img.ValidateStructure(); err != nil {
		return nil, fmt.Errorf("registry: pull %s:%s: %w", name, tag, err)
	}
	return img, nil
}
