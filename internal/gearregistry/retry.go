package gearregistry

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/gear-image/gear/internal/clientopt"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/wire"
)

// RetryStore wraps a Store with bounded retries on transient failures,
// the behavior a production Gear driver needs against a flaky network.
// Definite failures — a missing object, a malformed fingerprint — are
// returned immediately; everything else retries per the shared
// clientopt policy (Retries extra attempts, exponential Backoff between
// them). Every verb of Store shares the one policy.
type RetryStore struct {
	inner Store
	opts  clientopt.Options
	// retries counts extra attempts actually spent, for observability.
	retries atomic.Int64
}

var _ Store = (*RetryStore)(nil)

// ErrBadAttempts reports a retry policy that cannot be run: a negative
// backoff. (A policy always makes at least one attempt.)
var ErrBadAttempts = errors.New("bad retry policy")

// NewRetryStoreOptions wraps inner with the shared client-option retry
// policy (gear.ClientOptions): Retries extra attempts after the first,
// the i-th of them after Backoff << (i-1), capped after
// clientopt.MaxBackoffShift doublings. The zero Options means a single
// attempt — no retrying at all; a negative Backoff is refused. Timeout
// is a transport concern and is ignored here; NewClientWithOptions
// applies it.
func NewRetryStoreOptions(inner Store, o clientopt.Options) (*RetryStore, error) {
	if o.Backoff < 0 {
		return nil, fmt.Errorf("gearregistry: retry: negative backoff %v: %w", o.Backoff, ErrBadAttempts)
	}
	return &RetryStore{inner: inner, opts: clientopt.Options{Retries: o.Attempts() - 1, Backoff: o.Backoff}}, nil
}

// Retries returns how many extra attempts have been spent so far.
func (r *RetryStore) Retries() int64 { return r.retries.Load() }

// permanent reports errors that retrying cannot fix.
func permanent(err error) bool {
	return errors.Is(err, ErrNotFound) ||
		errors.Is(err, ErrFingerprintMismatch) ||
		errors.Is(err, ErrBadRange) ||
		errors.Is(err, hashing.ErrMalformed) ||
		errors.Is(err, wire.ErrBadRequest) ||
		errors.Is(err, wire.ErrTooLarge)
}

// do is the one attempt loop behind every verb. landed, where a verb has
// one, runs ahead of each retry and reports that the failed attempt took
// effect after all, which is success.
func (r *RetryStore) do(landed func() bool, op func() error) error {
	var err error
	attempts := r.opts.Attempts()
	for i := 0; i < attempts; i++ {
		if i > 0 {
			r.retries.Add(1)
			r.opts.Sleep(i)
			if landed != nil && landed() {
				return nil
			}
		}
		if err = op(); err == nil || permanent(err) {
			return err
		}
	}
	return fmt.Errorf("gearregistry: after %d attempts: %w", attempts, err)
}

// Query implements Store with retries.
func (r *RetryStore) Query(fp hashing.Fingerprint) (bool, error) {
	var present bool
	err := r.do(nil, func() error {
		var err error
		present, err = r.inner.Query(fp)
		return err
	})
	return present, err
}

// Upload implements Store with retries. Retried uploads are idempotent:
// a failed attempt may in fact have landed server-side (the response,
// not the upload, was lost), so each retry first queries the object and
// treats presence as success — re-uploading would both waste the wire
// and inflate the registry's dedup counters.
func (r *RetryStore) Upload(fp hashing.Fingerprint, data []byte) error {
	landed := func() bool {
		present, err := r.inner.Query(fp)
		return err == nil && present
	}
	return r.do(landed, func() error { return r.inner.Upload(fp, data) })
}

// Download implements Store with retries.
func (r *RetryStore) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	var payload []byte
	var wire int64
	err := r.do(nil, func() error {
		var err error
		payload, wire, err = r.inner.Download(fp)
		return err
	})
	return payload, wire, err
}
