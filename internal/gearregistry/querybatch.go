package gearregistry

import (
	"fmt"

	"github.com/gear-image/gear/internal/hashing"
)

// BatchQuerier is the part of Store that answers many presence queries
// in one round trip. It is the upload-side mirror of
// BatchDownloader: before pushing an image, a client checks the image's
// whole fingerprint set against the registry at once, so dedup (the
// paper's query-before-upload protocol, §III-C) costs one request
// instead of one per Gear file.
type BatchQuerier interface {
	// QueryBatch reports, per fingerprint in request order, whether the
	// Gear file is already stored. The whole batch fails if any
	// fingerprint is malformed — batches are all-or-nothing, mirroring
	// DownloadBatch. Absent objects are not an error; they simply report
	// false.
	QueryBatch(fps []hashing.Fingerprint) ([]bool, error)
}

// QueryBatch implements BatchQuerier on the in-process registry.
func (r *Registry) QueryBatch(fps []hashing.Fingerprint) ([]bool, error) {
	r.queries.Add(int64(len(fps)))
	for _, fp := range fps {
		if err := fp.Validate(); err != nil {
			return nil, fmt.Errorf("gearregistry: querybatch: %w", err)
		}
	}
	// Answer under one read lock so the batch is a consistent snapshot.
	present := make([]bool, len(fps))
	r.mu.RLock()
	for i, fp := range fps {
		_, present[i] = r.objects[fp]
	}
	r.mu.RUnlock()
	return present, nil
}

// QueryBatch implements BatchQuerier with retries.
func (r *RetryStore) QueryBatch(fps []hashing.Fingerprint) ([]bool, error) {
	var present []bool
	err := r.do(nil, func() error {
		var err error
		present, err = r.inner.QueryBatch(fps)
		return err
	})
	return present, err
}
