package gearregistry

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
)

func seedObjects(t *testing.T, r *Registry, n int) ([]hashing.Fingerprint, [][]byte) {
	t.Helper()
	fps := make([]hashing.Fingerprint, n)
	data := make([][]byte, n)
	for i := range fps {
		data[i] = bytes.Repeat([]byte(fmt.Sprintf("object %d contents ", i)), 16+i)
		fps[i] = put(t, r, data[i])
	}
	return fps, data
}

func TestDownloadBatchRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			r := New(Options{Compress: compress})
			fps, data := seedObjects(t, r, 8)

			payloads, wire, err := r.DownloadBatch(fps)
			if err != nil {
				t.Fatal(err)
			}
			if len(payloads) != len(fps) {
				t.Fatalf("got %d payloads, want %d", len(payloads), len(fps))
			}
			var total int64
			for i := range fps {
				if !bytes.Equal(payloads[i], data[i]) {
					t.Errorf("payload %d mismatch", i)
				}
				total += int64(len(data[i]))
			}
			if compress && wire >= total {
				t.Errorf("wire %d not below payload total %d with compression", wire, total)
			}
			if !compress && wire != total {
				t.Errorf("wire %d != payload total %d without compression", wire, total)
			}

			// Batch wire bytes must match the sum of per-object downloads:
			// batching amortizes requests, not bytes.
			var perObject int64
			for _, fp := range fps {
				_, w, err := r.Download(fp)
				if err != nil {
					t.Fatal(err)
				}
				perObject += w
			}
			if wire != perObject {
				t.Errorf("batch wire %d != per-object wire %d", wire, perObject)
			}
		})
	}
}

func TestDownloadBatchAllOrNothing(t *testing.T) {
	r := New(Options{})
	fps, _ := seedObjects(t, r, 3)

	missing := hashing.FingerprintBytes([]byte("never uploaded"))
	_, _, err := r.DownloadBatch(append(fps[:2:2], missing))
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("absent fingerprint: err = %v, want ErrNotFound", err)
	}
	_, _, err = r.DownloadBatch([]hashing.Fingerprint{fps[0], "zzzz"})
	if !errors.Is(err, hashing.ErrMalformed) {
		t.Errorf("malformed fingerprint: err = %v, want ErrMalformed", err)
	}
}

func TestDownloadBatchEmptyAndDuplicates(t *testing.T) {
	r := New(Options{})
	fps, data := seedObjects(t, r, 2)

	payloads, wire, err := r.DownloadBatch(nil)
	if err != nil || len(payloads) != 0 || wire != 0 {
		t.Errorf("empty batch: %d payloads, wire %d, err %v", len(payloads), wire, err)
	}

	// Duplicates are served per-slot: each occurrence pays its bytes.
	dup := []hashing.Fingerprint{fps[0], fps[1], fps[0]}
	payloads, wire, err = r.DownloadBatch(dup)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 3 || !bytes.Equal(payloads[0], data[0]) ||
		!bytes.Equal(payloads[1], data[1]) || !bytes.Equal(payloads[2], data[0]) {
		t.Errorf("duplicate batch payloads wrong")
	}
	if want := int64(2*len(data[0]) + len(data[1])); wire != want {
		t.Errorf("duplicate batch wire %d, want %d", wire, want)
	}
}

func TestHTTPBatchRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			reg := New(Options{Compress: compress})
			fps, data := seedObjects(t, reg, 5)
			srv := httptest.NewServer(NewHandler(reg))
			defer srv.Close()
			c := NewClient(srv.URL, srv.Client())

			payloads, wire, err := c.DownloadBatch(fps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range fps {
				if !bytes.Equal(payloads[i], data[i]) {
					t.Errorf("payload %d mismatch", i)
				}
			}
			if wire <= 0 {
				t.Errorf("wire = %d, want > 0", wire)
			}

			// And via the assertion a caller holding a plain Store makes to
			// find the batch verb.
			bd, ok := Store(c).(BatchDownloader)
			if !ok {
				t.Fatal("HTTP client does not offer DownloadBatch")
			}
			payloads2, _, err := bd.DownloadBatch(fps)
			if err != nil {
				t.Fatalf("DownloadBatch: %v", err)
			}
			for i := range fps {
				if !bytes.Equal(payloads2[i], data[i]) {
					t.Errorf("second batch payload %d mismatch", i)
				}
			}
		})
	}
}

func TestHTTPBatchErrors(t *testing.T) {
	reg := New(Options{})
	fps, _ := seedObjects(t, reg, 2)
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/gear/batch", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = resp.Body.Close() })
		return resp
	}

	if resp := post("zzzz\n"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fp: status %d, want 400", resp.StatusCode)
	}
	missing := hashing.FingerprintBytes([]byte("absent"))
	if resp := post(string(fps[0]) + "\n" + string(missing) + "\n"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("absent fp: status %d, want 404", resp.StatusCode)
	}
	resp, err := srv.Client().Get(srv.URL + "/gear/batch")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	c := NewClient(srv.URL, srv.Client())
	if _, _, err := c.DownloadBatch([]hashing.Fingerprint{missing}); !errors.Is(err, ErrNotFound) {
		t.Errorf("client absent fp: err = %v, want ErrNotFound", err)
	}
}
