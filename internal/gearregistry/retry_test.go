package gearregistry

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/clientopt"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/wire"
)

// flakyStore fails the first failures calls of each operation with a
// transient error.
type flakyStore struct {
	Store
	failures int
	calls    int
}

var errTransient = errors.New("connection reset")

func (f *flakyStore) tick() error {
	f.calls++
	if f.calls <= f.failures {
		return errTransient
	}
	return nil
}

func (f *flakyStore) Query(fp hashing.Fingerprint) (bool, error) {
	if err := f.tick(); err != nil {
		return false, err
	}
	return f.Store.Query(fp)
}

func (f *flakyStore) Upload(fp hashing.Fingerprint, data []byte) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Store.Upload(fp, data)
}

func (f *flakyStore) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	if err := f.tick(); err != nil {
		return nil, 0, err
	}
	return f.Store.Download(fp)
}

// A policy that cannot be run is refused, and the zero policy — or one
// asking for fewer retries than none — is a single attempt.
func TestNewRetryStoreValidates(t *testing.T) {
	if _, err := NewRetryStoreOptions(New(Options{}), clientopt.Options{Retries: 2, Backoff: -1}); !errors.Is(err, ErrBadAttempts) {
		t.Errorf("negative backoff: err = %v, want ErrBadAttempts", err)
	}
	for _, o := range []clientopt.Options{{}, {Retries: -3}} {
		flaky := &flakyStore{Store: New(Options{}), failures: 1}
		r, err := NewRetryStoreOptions(flaky, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Query(hashing.FingerprintBytes([]byte("x"))); !errors.Is(err, errTransient) || flaky.calls != 1 {
			t.Errorf("%+v: err = %v after %d calls, want errTransient after 1", o, err, flaky.calls)
		}
	}
}

func TestRetryRecoversFromTransientFailures(t *testing.T) {
	inner := New(Options{})
	// Retried uploads probe with Query first, and the flaky store fails
	// any operation while failures remain: attempt 1 upload fails, retry
	// 2's probe fails (ignored), its upload fails, retry 3's probe sees
	// the object absent and the upload finally lands.
	flaky := &flakyStore{Store: inner, failures: 3}
	r, err := NewRetryStoreOptions(flaky, clientopt.Options{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("eventually consistent")
	fp := hashing.FingerprintBytes(data)
	if err := r.Upload(fp, data); err != nil {
		t.Fatalf("upload with retries failed: %v", err)
	}
	if r.Retries() != 2 {
		t.Errorf("retries = %d, want 2", r.Retries())
	}
	got, _, err := r.Download(fp)
	if err != nil || string(got) != string(data) {
		t.Errorf("download = %q, %v", got, err)
	}
}

func TestRetryGivesUpAfterBound(t *testing.T) {
	flaky := &flakyStore{Store: New(Options{}), failures: 10}
	r, err := NewRetryStoreOptions(flaky, clientopt.Options{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Upload(hashing.FingerprintBytes([]byte("x")), []byte("x")); !errors.Is(err, errTransient) {
		t.Errorf("err = %v, want wrapped errTransient", err)
	}
	// 3 uploads plus the idempotency probe before each of the 2 retries.
	if flaky.calls != 5 {
		t.Errorf("calls = %d, want 5", flaky.calls)
	}
}

// lossyStore lands uploads server-side but loses the first N responses —
// the failure mode that makes naive upload retries double-count dedup.
type lossyStore struct {
	Store
	losses int
}

func (l *lossyStore) Upload(fp hashing.Fingerprint, data []byte) error {
	err := l.Store.Upload(fp, data)
	if err == nil && l.losses > 0 {
		l.losses--
		return errTransient
	}
	return err
}

func TestRetryUploadIsIdempotent(t *testing.T) {
	inner := New(Options{})
	lossy := &lossyStore{Store: inner, losses: 1}
	r, err := NewRetryStoreOptions(lossy, clientopt.Options{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("landed but response lost")
	fp := hashing.FingerprintBytes(data)
	if err := r.Upload(fp, data); err != nil {
		t.Fatalf("upload: %v", err)
	}
	// The retry's Query probe saw the object present and did not
	// re-upload, so the registry records no duplicate-upload hit.
	st := inner.Stats()
	if st.DedupHits != 0 {
		t.Errorf("dedup hits = %d, want 0 (retry must not re-upload)", st.DedupHits)
	}
	if st.Objects != 1 {
		t.Errorf("objects = %d, want 1", st.Objects)
	}
}

func TestRetryBackoff(t *testing.T) {
	flaky := &flakyStore{Store: New(Options{}), failures: 2}
	r, err := NewRetryStoreOptions(flaky, clientopt.Options{Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("backed off")
	start := time.Now()
	if _, err := r.Query(hashing.FingerprintBytes(data)); err != nil {
		t.Fatalf("query: %v", err)
	}
	// Two retries sleep 1ms + 2ms under exponential backoff.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Errorf("elapsed = %v, want >= 3ms of backoff", elapsed)
	}
}

func TestRetryDoesNotRetryPermanentErrors(t *testing.T) {
	inner := New(Options{})
	flaky := &flakyStore{Store: inner, failures: 0}
	r, err := NewRetryStoreOptions(flaky, clientopt.Options{Retries: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Missing object: immediate failure, no retries.
	if _, _, err := r.Download(hashing.FingerprintBytes([]byte("ghost"))); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if flaky.calls != 1 {
		t.Errorf("calls = %d, want 1 (no retry on permanent error)", flaky.calls)
	}
	// Fingerprint mismatch: same.
	flaky.calls = 0
	if err := r.Upload(hashing.FingerprintBytes([]byte("a")), []byte("b")); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("err = %v", err)
	}
	if flaky.calls != 1 {
		t.Errorf("calls = %d, want 1", flaky.calls)
	}
	if r.Retries() != 0 {
		t.Errorf("retries = %d, want 0", r.Retries())
	}
}

// A 400 is typed on the client side of HTTP too, so the retry wrapper
// sees a verdict, not a transient failure, and sends each request once.
func TestRetryDoesNotRetryPermanentErrorsOverHTTP(t *testing.T) {
	h := NewHandler(New(Options{}))
	var uploads, downloads atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPut:
			uploads.Add(1)
		case http.MethodGet:
			downloads.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	store, err := NewClientWithOptions(srv.URL, clientopt.Options{Retries: 4, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	err = store.Upload(hashing.FingerprintBytes([]byte("a")), []byte("b"))
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("upload err = %v, want ErrFingerprintMismatch", err)
	}
	if n := uploads.Load(); n != 1 {
		t.Errorf("mismatched upload sent %d times, want 1", n)
	}
	// The retried upload's presence probe is a GET; it must not have run.
	if n := downloads.Load(); n != 0 {
		t.Errorf("%d GETs around a refused upload, want 0", n)
	}

	if _, _, err := store.Download("not-a-fingerprint"); !errors.Is(err, hashing.ErrMalformed) {
		t.Errorf("download err = %v, want hashing.ErrMalformed", err)
	}
	if n := downloads.Load(); n != 1 {
		t.Errorf("malformed download sent %d times, want 1", n)
	}
}

// A 400 whose text names no error of the protocol is still a verdict —
// sent once — but it is not passed off as a fingerprint mismatch.
func TestRetryTreatsUnnamed400AsPermanent(t *testing.T) {
	var uploads atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		uploads.Add(1)
		http.Error(w, "unexpected EOF", http.StatusBadRequest)
	}))
	defer srv.Close()
	store, err := NewClientWithOptions(srv.URL, clientopt.Options{Retries: 4, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	err = store.Upload(hashing.FingerprintBytes([]byte("a")), []byte("a"))
	if !errors.Is(err, wire.ErrBadRequest) || errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("upload err = %v, want wire.ErrBadRequest and not ErrFingerprintMismatch", err)
	}
	if n := uploads.Load(); n != 1 {
		t.Errorf("refused upload sent %d times, want 1", n)
	}
}

func TestRetryQueryPassesThrough(t *testing.T) {
	inner := New(Options{})
	data := []byte("present")
	fp := hashing.FingerprintBytes(data)
	if err := inner.Upload(fp, data); err != nil {
		t.Fatal(err)
	}
	r, err := NewRetryStoreOptions(&flakyStore{Store: inner, failures: 1}, clientopt.Options{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := r.Query(fp)
	if err != nil || !ok {
		t.Errorf("Query = %v, %v", ok, err)
	}
}
