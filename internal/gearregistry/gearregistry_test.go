package gearregistry

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/wire"
)

func put(t testing.TB, s Store, data []byte) hashing.Fingerprint {
	t.Helper()
	fp := hashing.FingerprintBytes(data)
	if err := s.Upload(fp, data); err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			r := New(Options{Compress: compress})
			data := bytes.Repeat([]byte("gear file content "), 64)
			fp := put(t, r, data)

			ok, err := r.Query(fp)
			if err != nil || !ok {
				t.Errorf("Query = %v, %v; want true", ok, err)
			}
			got, wire, err := r.Download(fp)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("Download mismatch: %d bytes, %v", len(got), err)
			}
			if compress && wire >= int64(len(data)) {
				t.Errorf("wire bytes %d not below payload %d with compression", wire, len(data))
			}
			if !compress && wire != int64(len(data)) {
				t.Errorf("wire bytes %d != payload %d without compression", wire, len(data))
			}
			size, err := r.Size(fp)
			if err != nil || size != int64(len(data)) {
				t.Errorf("Size = %d, %v; want %d", size, err, len(data))
			}
		})
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	data := bytes.Repeat([]byte("very compressible data! "), 256)
	plain := New(Options{})
	comp := New(Options{Compress: true})
	fp := hashing.FingerprintBytes(data)
	if err := plain.Upload(fp, data); err != nil {
		t.Fatal(err)
	}
	if err := comp.Upload(fp, data); err != nil {
		t.Fatal(err)
	}
	ps, cs := plain.Stats(), comp.Stats()
	if cs.StoredBytes >= ps.StoredBytes {
		t.Errorf("compressed %d >= plain %d", cs.StoredBytes, ps.StoredBytes)
	}
	if cs.LogicalBytes != ps.LogicalBytes {
		t.Errorf("logical bytes differ: %d vs %d", cs.LogicalBytes, ps.LogicalBytes)
	}
}

func TestDedup(t *testing.T) {
	r := New(Options{})
	data := []byte("shared file")
	fp := put(t, r, data)
	for i := 0; i < 4; i++ {
		if err := r.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Stats()
	if s.Objects != 1 || s.DedupHits != 4 {
		t.Errorf("stats = %+v, want 1 object / 4 dedup hits", s)
	}
}

func TestUploadVerifiesFingerprint(t *testing.T) {
	r := New(Options{})
	err := r.Upload(hashing.FingerprintBytes([]byte("other")), []byte("data"))
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("err = %v, want ErrFingerprintMismatch", err)
	}
	if err := r.Upload("not-a-fingerprint", []byte("x")); !errors.Is(err, hashing.ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestCollisionIDsSkipVerification(t *testing.T) {
	r := New(Options{})
	fp := hashing.Fingerprint(strings.Repeat("a", 32) + "-c1")
	if err := r.Upload(fp, []byte("colliding content")); err != nil {
		t.Fatalf("collision ID rejected: %v", err)
	}
	got, _, err := r.Download(fp)
	if err != nil || string(got) != "colliding content" {
		t.Errorf("Download = %q, %v", got, err)
	}
}

func TestDownloadMissing(t *testing.T) {
	r := New(Options{})
	fp := hashing.FingerprintBytes([]byte("ghost"))
	if _, _, err := r.Download(fp); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := r.Size(fp); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size err = %v, want ErrNotFound", err)
	}
	ok, err := r.Query(fp)
	if err != nil || ok {
		t.Errorf("Query = %v, %v; want false", ok, err)
	}
}

func TestConcurrentUploads(t *testing.T) {
	r := New(Options{})
	data := []byte("contended")
	fp := hashing.FingerprintBytes(data)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = r.Upload(fp, data)
		}()
	}
	wg.Wait()
	if s := r.Stats(); s.Objects != 1 || s.DedupHits != 7 {
		t.Errorf("stats = %+v, want 1 object / 7 hits", s)
	}
}

func TestStatsAccounting(t *testing.T) {
	r := New(Options{})
	put(t, r, []byte("aaaa"))
	put(t, r, []byte("bbbbbbbb"))
	s := r.Stats()
	if s.Objects != 2 || s.LogicalBytes != 12 || s.StoredBytes != 12 {
		t.Errorf("stats = %+v", s)
	}
}

// --- HTTP layer ---

func newHTTPStore(t *testing.T, opts Options) (*Registry, Store) {
	t.Helper()
	reg := New(opts)
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	return reg, NewClient(srv.URL, srv.Client())
}

func TestHTTPRoundTrip(t *testing.T) {
	reg, client := newHTTPStore(t, Options{Compress: true})
	data := bytes.Repeat([]byte("over the wire "), 32)
	fp := hashing.FingerprintBytes(data)

	ok, err := client.Query(fp)
	if err != nil || ok {
		t.Errorf("Query before upload = %v, %v", ok, err)
	}
	if err := client.Upload(fp, data); err != nil {
		t.Fatal(err)
	}
	ok, err = client.Query(fp)
	if err != nil || !ok {
		t.Errorf("Query after upload = %v, %v", ok, err)
	}
	got, wire, err := client.Download(fp)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("Download mismatch: %d bytes, %v", len(got), err)
	}
	if wire >= int64(len(data)) {
		t.Errorf("HTTP wire bytes %d not below payload %d with compression", wire, len(data))
	}
	if s := reg.Stats(); s.Objects != 1 {
		t.Errorf("server stats = %+v", s)
	}
}

// A refusal crosses HTTP as the error the registry returned.
func TestHTTPErrors(t *testing.T) {
	_, client := newHTTPStore(t, Options{})
	fp := hashing.FingerprintBytes([]byte("missing"))
	if _, _, err := client.Download(fp); !errors.Is(err, ErrNotFound) {
		t.Errorf("download err = %v, want ErrNotFound", err)
	}
	if err := client.Upload(fp, []byte("wrong content")); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("mismatched upload err = %v, want ErrFingerprintMismatch", err)
	}
	if _, _, err := client.Download("not-a-fingerprint"); !errors.Is(err, hashing.ErrMalformed) {
		t.Errorf("malformed download err = %v, want hashing.ErrMalformed", err)
	}
	if _, err := client.Query("malformed!!"); err == nil {
		t.Error("malformed query accepted")
	}

	// A 400 whose text names no error of the protocol is a bad request,
	// but not passed off as a fingerprint mismatch.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "unexpected EOF", http.StatusBadRequest)
	}))
	defer srv.Close()
	err := NewClient(srv.URL, nil).Upload(hashing.FingerprintBytes([]byte("a")), []byte("a"))
	if !errors.Is(err, wire.ErrBadRequest) || errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("unnamed 400: err = %v, want wire.ErrBadRequest and not ErrFingerprintMismatch", err)
	}
}

func TestHTTPUnknownRoutes(t *testing.T) {
	reg := New(Options{})
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	for _, p := range []string{"/", "/gear/", "/gear/query/", "/other/path"} {
		resp, err := srv.Client().Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("GET %s = %d, want 404", p, resp.StatusCode)
		}
	}
}

// Property: any byte content survives an HTTP round trip through a
// compressed registry unchanged.
func TestHTTPRoundTripProperty(t *testing.T) {
	_, client := newHTTPStore(t, Options{Compress: true})
	prop := func(data []byte) bool {
		fp := hashing.FingerprintBytes(data)
		if err := client.Upload(fp, data); err != nil {
			return false
		}
		got, _, err := client.Download(fp)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRetainGarbageCollects(t *testing.T) {
	r := New(Options{Compress: true})
	live := []byte("still referenced")
	dead := []byte("orphaned by image deletion")
	liveFP := hashing.FingerprintBytes(live)
	deadFP := hashing.FingerprintBytes(dead)
	if err := r.Upload(liveFP, live); err != nil {
		t.Fatal(err)
	}
	if err := r.Upload(deadFP, dead); err != nil {
		t.Fatal(err)
	}
	removed, freed := r.Retain(map[hashing.Fingerprint]bool{liveFP: true})
	if removed != 1 || freed <= 0 {
		t.Errorf("Retain = %d removed, %d freed", removed, freed)
	}
	if ok, _ := r.Query(liveFP); !ok {
		t.Error("live object collected")
	}
	if ok, _ := r.Query(deadFP); ok {
		t.Error("dead object survived")
	}
	if s := r.Stats(); s.Objects != 1 {
		t.Errorf("objects = %d", s.Objects)
	}
	// Idempotent.
	if removed, _ := r.Retain(map[hashing.Fingerprint]bool{liveFP: true}); removed != 0 {
		t.Errorf("second Retain removed %d", removed)
	}
}

func TestHTTPGC(t *testing.T) {
	reg := New(Options{})
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())

	live, dead := []byte("live"), []byte("dead")
	liveFP, deadFP := hashing.FingerprintBytes(live), hashing.FingerprintBytes(dead)
	if err := client.Upload(liveFP, live); err != nil {
		t.Fatal(err)
	}
	if err := client.Upload(deadFP, dead); err != nil {
		t.Fatal(err)
	}
	removed, freed, err := client.GC([]hashing.Fingerprint{liveFP})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != int64(len(dead)) {
		t.Errorf("GC = %d removed, %d freed", removed, freed)
	}
	if ok, _ := reg.Query(liveFP); !ok {
		t.Error("live object collected over HTTP")
	}
	if ok, _ := reg.Query(deadFP); ok {
		t.Error("dead object survived over HTTP")
	}
	// Malformed fingerprints are rejected whole.
	resp, err := srv.Client().Post(srv.URL+"/gear/gc", "text/plain", strings.NewReader("not-a-fp\n"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed gc status = %d", resp.StatusCode)
	}
	// GET is not allowed.
	getResp, err := srv.Client().Get(srv.URL + "/gear/gc")
	if err != nil {
		t.Fatal(err)
	}
	_ = getResp.Body.Close()
	if getResp.StatusCode != 405 {
		t.Errorf("GET gc status = %d", getResp.StatusCode)
	}
	// GC with an empty keep set removes everything.
	if err := client.Upload(liveFP, live); err == nil {
		// already present; dedup hit is fine
		_ = err
	}
	removed, _, err = client.GC(nil)
	if err != nil || removed != 1 {
		t.Errorf("empty-keep GC = %d removed, %v", removed, err)
	}
}

// Fingerprints enumerates the pool sorted; Delete removes one object,
// keeps the pool gauges exact, and reports ErrNotFound for absences.
func TestFingerprintsAndDelete(t *testing.T) {
	reg := New(Options{Compress: true})
	var want []hashing.Fingerprint
	for i := 0; i < 5; i++ {
		data := []byte(strings.Repeat("object ", i+1))
		fp := hashing.FingerprintBytes(data)
		want = append(want, fp)
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	got := reg.Fingerprints()
	if len(got) != len(want) {
		t.Fatalf("Fingerprints returned %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Fingerprints[%d] = %s, want %s (sorted)", i, got[i], want[i])
		}
	}

	before := reg.Stats()
	freed, err := reg.Delete(want[0])
	if err != nil {
		t.Fatal(err)
	}
	if freed <= 0 {
		t.Fatalf("Delete freed %d bytes", freed)
	}
	after := reg.Stats()
	if after.Objects != before.Objects-1 {
		t.Fatalf("objects %d after delete, want %d", after.Objects, before.Objects-1)
	}
	if after.StoredBytes != before.StoredBytes-freed {
		t.Fatalf("stored bytes %d, want %d", after.StoredBytes, before.StoredBytes-freed)
	}
	if after.LogicalBytes >= before.LogicalBytes {
		t.Fatal("logical bytes did not shrink")
	}
	if present, _ := reg.Query(want[0]); present {
		t.Fatal("deleted object still present")
	}
	if len(reg.Fingerprints()) != len(want)-1 {
		t.Fatal("enumeration still lists deleted object")
	}

	if _, err := reg.Delete(want[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
	if _, err := reg.Delete(hashing.Fingerprint("zzzz")); !errors.Is(err, hashing.ErrMalformed) {
		t.Fatalf("malformed delete err = %v, want ErrMalformed", err)
	}

	// Deleted objects can be re-uploaded (no tombstone).
	data := []byte(strings.Repeat("object ", 1))
	if err := reg.Upload(want[0], data); err != nil {
		// want[0] may not be data's fp after sorting; recompute.
		fp := hashing.FingerprintBytes(data)
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
}
