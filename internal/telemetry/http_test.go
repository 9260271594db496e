package telemetry

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/gear-image/gear/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a deterministic registry resembling a daemon's:
// fetch counters, pool gauges, and one latency histogram.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("store.remote.objects").Add(12)
	r.Counter("store.remote.bytes").Add(48_000)
	r.Counter("store.prefetch.hits").Add(7)
	r.Counter("cache.hits").Add(30)
	r.Counter("cache.misses").Add(12)
	r.Gauge("cache.bytes").Set(16_384)
	r.Gauge("store.indexes").Set(3)
	h := r.Histogram("store.demand.stall", DefaultLatencyBounds)
	h.Observe(50_000)      // 50µs -> first bucket
	h.Observe(5_000_000)   // 5ms
	h.Observe(200_000_000) // 200ms
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestMetricsHandlerGolden(t *testing.T) {
	srv := httptest.NewServer(wire.NewHandler(nil, Verb("*", goldenRegistry())))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json", buf.Bytes())

	// The body must round-trip through the CLI's decoder.
	snap, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("decode own exposition: %v", err)
	}
	if got := snap.Counter("store.remote.objects"); got != 12 {
		t.Fatalf("round-tripped counter = %d, want 12", got)
	}
}

func TestMetricsHandlerRejectsNonGET(t *testing.T) {
	srv := httptest.NewServer(wire.NewHandler(nil, Verb("*", goldenRegistry())))
	defer srv.Close()
	resp, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %s, want 405", resp.Status)
	}
}

func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	WriteText(&buf, goldenRegistry().Snapshot())
	checkGolden(t, "metrics.txt", buf.Bytes())
}

func TestWriteTextEmpty(t *testing.T) {
	var buf bytes.Buffer
	WriteText(&buf, Snapshot{})
	if got := buf.String(); got != "(empty snapshot)\n" {
		t.Fatalf("empty render = %q", got)
	}
}

func TestDecodeSnapshotRejectsInvalid(t *testing.T) {
	cases := []string{
		`not json`,
		`{"histograms":{"h":{"bounds":[1,2],"counts":[0,0],"sum":0,"count":0}}}`,
		`{"histograms":{"h":{"bounds":[2,1],"counts":[0,0,0],"sum":0,"count":0}}}`,
	}
	for i, c := range cases {
		if _, err := DecodeSnapshot([]byte(c)); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}
