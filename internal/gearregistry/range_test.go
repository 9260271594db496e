package gearregistry

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
)

func rangeObject(t *testing.T, reg *Registry) (hashing.Fingerprint, []byte) {
	t.Helper()
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	fp := hashing.FingerprintBytes(data)
	if err := reg.Upload(fp, data); err != nil {
		t.Fatal(err)
	}
	return fp, data
}

func TestRegistryDownloadRange(t *testing.T) {
	for _, compress := range []bool{false, true} {
		reg := New(Options{Compress: compress})
		fp, data := rangeObject(t, reg)
		for _, r := range []struct{ off, n int64 }{
			{0, 1}, {0, 10000}, {9999, 1}, {1234, 4321},
		} {
			got, wire, err := reg.DownloadRange(fp, r.off, r.n)
			if err != nil {
				t.Fatalf("compress=%v range [%d,+%d): %v", compress, r.off, r.n, err)
			}
			if wire != r.n || !bytes.Equal(got, data[r.off:r.off+r.n]) {
				t.Fatalf("compress=%v range [%d,+%d): wrong slice (wire %d)", compress, r.off, r.n, wire)
			}
		}
		for _, r := range []struct{ off, n int64 }{
			{-1, 5}, {0, 0}, {0, -1}, {9999, 2}, {10000, 1}, {0, 10001},
			// off+n overflows int64: refused by the bounds, before any
			// slice of n bytes is made or the object inflated.
			{math.MaxInt64, 1}, {2, math.MaxInt64},
		} {
			if _, _, err := reg.DownloadRange(fp, r.off, r.n); !errors.Is(err, ErrBadRange) {
				t.Fatalf("compress=%v range [%d,+%d) = %v, want ErrBadRange", compress, r.off, r.n, err)
			}
		}
		absent := hashing.FingerprintBytes([]byte("absent"))
		if _, _, err := reg.DownloadRange(absent, 0, 1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("absent object: %v", err)
		}
		if _, _, err := reg.DownloadRange("zz", 0, 1); !errors.Is(err, hashing.ErrMalformed) {
			t.Fatalf("malformed fp: %v", err)
		}
	}
}

func TestRangeHTTPRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		reg := New(Options{Compress: compress})
		fp, data := rangeObject(t, reg)
		srv := httptest.NewServer(NewHandler(reg))
		defer srv.Close()
		c := NewClient(srv.URL, srv.Client())

		got, wire, err := c.DownloadRange(fp, 500, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[500:2500]) {
			t.Fatalf("compress=%v: wrong payload", compress)
		}
		// Wire = header + the slice, never the whole object: exactly n
		// bytes from a raw pool, and a compressed pool's slice of this
		// repetitive object compressed.
		if !compress && (wire <= 2000 || wire >= 2100) || compress && wire >= 1000 {
			t.Fatalf("compress=%v: wire = %d", compress, wire)
		}

		for _, r := range []struct{ off, n int64 }{
			{9000, 2000}, {math.MaxInt64, 1}, {2, math.MaxInt64},
		} {
			// ErrBadRange is the client's reading of a 416: a handler that
			// panicked (connection dropped) or answered 500 is neither.
			if _, _, err := c.DownloadRange(fp, r.off, r.n); !errors.Is(err, ErrBadRange) {
				t.Fatalf("compress=%v: oob range [%d,+%d) over HTTP: %v", compress, r.off, r.n, err)
			}
		}
		absent := hashing.FingerprintBytes([]byte("absent"))
		if _, _, err := c.DownloadRange(absent, 0, 1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("absent over HTTP: %v", err)
		}
	}
}

func TestRangeHTTPVerbSurface(t *testing.T) {
	reg := New(Options{})
	fp, _ := rangeObject(t, reg)
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	// Wrong method.
	resp, err := http.Post(srv.URL+"/gear/range/"+string(fp)+"/0/1", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST range = %d", resp.StatusCode)
	}
	// Malformed paths 404.
	for _, p := range []string{
		"/gear/range/", "/gear/range/" + string(fp), "/gear/range/" + string(fp) + "/0",
		"/gear/range/" + string(fp) + "/x/1", "/gear/range/" + string(fp) + "/0/y",
	} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", p, resp.StatusCode)
		}
	}
}
