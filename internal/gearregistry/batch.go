package gearregistry

import (
	"fmt"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/tarstream"
)

// BatchDownloader is the part of Store that serves many Gear files in
// one round trip, amortizing per-request overhead across the batch —
// the transfer shape behind the concurrent fetch engine.
type BatchDownloader interface {
	// DownloadBatch fetches the given Gear files in one request. The
	// payloads come back uncompressed, in request order, alongside the
	// total bytes that crossed the wire. The whole batch fails if any
	// fingerprint is malformed or absent.
	DownloadBatch(fps []hashing.Fingerprint) (payloads [][]byte, wireBytes int64, err error)
}

// DownloadBatch implements BatchDownloader on the in-process registry.
func (r *Registry) DownloadBatch(fps []hashing.Fingerprint) ([][]byte, int64, error) {
	r.downloads.Add(int64(len(fps)))
	for _, fp := range fps {
		if err := fp.Validate(); err != nil {
			return nil, 0, fmt.Errorf("gearregistry: batch: %w", err)
		}
	}
	// Gather all stored objects under one read lock so the batch is a
	// consistent snapshot, then decompress outside it.
	stored := make([][]byte, len(fps))
	var wire int64
	r.mu.RLock()
	for i, fp := range fps {
		b, ok := r.objects[fp]
		if !ok {
			r.mu.RUnlock()
			return nil, 0, fmt.Errorf("gearregistry: batch: %s: %w", fp, ErrNotFound)
		}
		stored[i] = b
		wire += int64(len(b))
	}
	r.mu.RUnlock()

	if !r.opts.Compress {
		return stored, wire, nil
	}
	payloads := make([][]byte, len(fps))
	for i, b := range stored {
		data, err := tarstream.Gunzip(b)
		if err != nil {
			return nil, 0, fmt.Errorf("gearregistry: batch %s: %w", fps[i], err)
		}
		payloads[i] = data
	}
	return payloads, wire, nil
}

// DownloadBatch implements BatchDownloader with retries: the batch is
// all-or-nothing, so it is retried whole.
func (r *RetryStore) DownloadBatch(fps []hashing.Fingerprint) ([][]byte, int64, error) {
	var payloads [][]byte
	var wire int64
	err := r.do(nil, func() error {
		var err error
		payloads, wire, err = r.inner.DownloadBatch(fps)
		return err
	})
	return payloads, wire, err
}
