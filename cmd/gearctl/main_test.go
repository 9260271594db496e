package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/peer"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/shardreg"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSplitRef(t *testing.T) {
	tests := []struct {
		in        string
		name, tag string
		ok        bool
	}{
		{"nginx:v01", "nginx", "v01", true},
		{"gear/nginx:v01", "gear/nginx", "v01", true},
		{"a:b:c", "a:b", "c", true},
		{"noTag", "", "", false},
		{":tagonly", "", "", false},
		{"nameonly:", "", "", false},
		{"", "", "", false},
	}
	for _, tt := range tests {
		name, tag, err := splitRef(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("splitRef(%q) err = %v", tt.in, err)
			continue
		}
		if err == nil && (name != tt.name || tag != tt.tag) {
			t.Errorf("splitRef(%q) = %q,%q, want %q,%q", tt.in, name, tag, tt.name, tt.tag)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("empty args err = %v", err)
	}
	if err := run([]string{"bogus"}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Errorf("bogus subcommand err = %v", err)
	}
}

// TestSeedListIndexDeployGC drives every subcommand against live HTTP
// registries — the CLI's full integration path.
func TestSeedListIndexDeployGC(t *testing.T) {
	dockerSrv := httptest.NewServer(registry.NewHandler(registry.New()))
	defer dockerSrv.Close()
	gearSrv := httptest.NewServer(gearregistry.NewHandler(gearregistry.New(gearregistry.Options{Compress: true})))
	defer gearSrv.Close()

	steps := [][]string{
		{"seed", "-docker", dockerSrv.URL, "-gear", gearSrv.URL,
			"-series", "redis", "-versions", "2", "-scale", "0.2"},
		{"list", "-docker", dockerSrv.URL},
		{"index", "-docker", dockerSrv.URL, "-image", "gear/redis:v01"},
		{"deploy", "-docker", dockerSrv.URL, "-gear", gearSrv.URL,
			"-image", "gear/redis:v02", "-mode", "gear", "-mbps", "100", "-scale", "0.2"},
		{"deploy", "-docker", dockerSrv.URL, "-gear", gearSrv.URL,
			"-image", "redis:v01", "-mode", "docker", "-scale", "0.2"},
		{"gc", "-docker", dockerSrv.URL, "-gear", gearSrv.URL},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("gearctl %s: %v", strings.Join(args, " "), err)
		}
	}
	// Deploying a missing image fails cleanly.
	err := run([]string{"deploy", "-docker", dockerSrv.URL, "-gear", gearSrv.URL,
		"-image", "ghost-img:v01", "-series", "redis", "-scale", "0.2"})
	if err == nil {
		t.Error("missing image deployed")
	}
}

// TestDeployTrace runs deploy -trace against live HTTP registries: the
// Explain rows add up, to the nanosecond and the byte, to its total row,
// that total is the deploy's, and the slowest faults, at most ten of
// them, follow in descending order.
func TestDeployTrace(t *testing.T) {
	dockerSrv := httptest.NewServer(registry.NewHandler(registry.New()))
	defer dockerSrv.Close()
	gearSrv := httptest.NewServer(gearregistry.NewHandler(gearregistry.New(gearregistry.Options{Compress: true})))
	defer gearSrv.Close()
	if err := run([]string{"seed", "-docker", dockerSrv.URL, "-gear", gearSrv.URL,
		"-series", "mysql", "-versions", "1", "-scale", "0.5"}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := cmdDeploy([]string{"-docker", dockerSrv.URL, "-gear", gearSrv.URL,
		"-image", "gear/mysql:v01", "-mbps", "100", "-scale", "0.5", "-trace"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	head := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "span ") })
	if head < 0 {
		t.Fatalf("no Explain table in:\n%s", out.String())
	}
	var sum, total time.Duration
	var sumBytes, totalBytes int64
	faults := -1
	i := head + 1
	for ; i < len(lines) && !strings.HasPrefix(lines[i], "total "); i++ {
		f := strings.Fields(lines[i])
		if len(f) != 4 {
			t.Fatalf("row %q: want span, count, self time, self bytes", lines[i])
		}
		sum += mustDuration(t, f[2])
		sumBytes += mustInt(t, f[3])
		if f[0] == "deploy.fault" {
			faults = int(mustInt(t, f[1]))
		}
	}
	if i == len(lines) {
		t.Fatalf("no total row in:\n%s", out.String())
	}
	f := strings.Fields(lines[i])
	total, totalBytes = mustDuration(t, f[1]), mustInt(t, f[2])
	if sum != total || sumBytes != totalBytes {
		t.Errorf("rows add up to %v and %d B, total row says %v and %d B", sum, sumBytes, total, totalBytes)
	}
	if want := "total: " + total.Round(time.Millisecond).String(); !slices.Contains(lines, want) {
		t.Errorf("the deploy's total line %q is not printed:\n%s", want, out.String())
	}
	if faults <= 10 {
		t.Fatalf("the deploy faulted %d times; the test needs more than ten to cut", faults)
	}
	if lines[i+1] != "slowest faults:" {
		t.Fatalf("line after the table is %q, want the slowest faults", lines[i+1])
	}
	var printed []time.Duration
	for _, l := range lines[i+2:] {
		printed = append(printed, mustDuration(t, strings.Fields(l)[1]))
	}
	if len(printed) != 10 || !slices.IsSortedFunc(printed, func(a, b time.Duration) int { return cmp.Compare(b, a) }) {
		t.Errorf("printed %d fault lines %v, want the ten slowest, slowest first", len(printed), printed)
	}
}

func mustDuration(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustInt(t *testing.T, s string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPeersSubcommand drives gearctl peers against a live HTTP tracker,
// before and after nodes report served traffic, and pins the report
// (tracker URL elided) in testdata/peers.txt.
func TestPeersSubcommand(t *testing.T) {
	var out bytes.Buffer
	for _, traffic := range []bool{false, true} {
		tr := peer.NewTracker()
		a, b, c := hashing.FingerprintBytes([]byte("a")), hashing.FingerprintBytes([]byte("b")), hashing.FingerprintBytes([]byte("c"))
		for _, err := range []error{
			tr.Announce("node0", a, b), tr.Announce("node1", a), tr.Announce("node2", c), tr.Withdraw("node2", c),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if traffic {
			tr.ReportServed(3, 4096, 2, 1024)
		}
		srv := httptest.NewServer(peer.NewTrackerHandler(tr))
		var report bytes.Buffer
		if err := cmdPeers([]string{"-tracker", srv.URL}, &report); err != nil {
			t.Fatalf("gearctl peers: %v", err)
		}
		out.WriteString(strings.ReplaceAll(report.String(), srv.URL, "TRACKER"))
		// An unreachable tracker fails cleanly.
		srv.Close()
		if err := cmdPeers([]string{"-tracker", srv.URL}, io.Discard); err == nil {
			t.Error("peers against a dead tracker succeeded")
		}
	}
	checkStatsGolden(t, "peers.txt", out.Bytes())
}

// TestProfileSubcommand drives gearctl profile (list, dump, delete)
// against a live HTTP profile library.
func TestProfileSubcommand(t *testing.T) {
	lib := prefetch.NewLibrary()
	if err := lib.Put(&prefetch.Profile{
		ImageRef: "gear/nginx:v01",
		Entries: []prefetch.Entry{
			{Fingerprint: hashing.FingerprintBytes([]byte("a")), Size: 100},
			{Fingerprint: hashing.FingerprintBytes([]byte("b")), Size: 200},
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(prefetch.NewLibraryHandler(lib))
	defer srv.Close()

	steps := [][]string{
		{"profile", "-library", srv.URL},
		{"profile", "-library", srv.URL, "-dump", "gear/nginx:v01"},
		{"profile", "-library", srv.URL, "-delete", "gear/nginx:v01"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("gearctl %s: %v", strings.Join(args, " "), err)
		}
	}
	if n := len(lib.List()); n != 0 {
		t.Errorf("library holds %d profiles after delete", n)
	}
	// Dumping the deleted profile fails cleanly, as does mixing actions.
	if err := run([]string{"profile", "-library", srv.URL, "-dump", "gear/nginx:v01"}); err == nil {
		t.Error("dump of a deleted profile succeeded")
	}
	if err := run([]string{"profile", "-library", srv.URL,
		"-dump", "a:b", "-delete", "a:b"}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("mixed actions err = %v", err)
	}
}

// statsRegistry builds a deterministic fixture resembling a daemon's
// registry, for golden-file rendering of the stats subcommand.
func statsRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Counter("store.remote.objects").Add(40)
	reg.Counter("store.remote.bytes").Add(1_048_576)
	reg.Counter("store.prefetch.hits").Add(25)
	reg.Counter("cache.hits").Add(90)
	reg.Counter("cache.misses").Add(40)
	reg.Gauge("cache.bytes").Set(524_288)
	reg.Gauge("store.indexes").Set(2)
	h := reg.Histogram("store.demand.stall", telemetry.DefaultLatencyBounds)
	h.Observe(100_000)
	h.Observe(40_000_000)
	return reg
}

func checkStatsGolden(t *testing.T, name string, got []byte) {
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

// TestStatsSubcommand drives gearctl stats against a live /metrics
// endpoint: golden text and JSON rendering, plus the -save / -diff
// round trip used for before/after deltas.
func TestStatsSubcommand(t *testing.T) {
	reg := statsRegistry()
	mux := http.NewServeMux()
	mux.Handle("/metrics", wire.NewHandler(nil, telemetry.Verb("/metrics", reg)))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var text bytes.Buffer
	if err := cmdStats([]string{"-url", srv.URL}, &text); err != nil {
		t.Fatalf("gearctl stats: %v", err)
	}
	checkStatsGolden(t, "stats.txt", text.Bytes())

	var js bytes.Buffer
	if err := cmdStats([]string{"-url", srv.URL, "-json"}, &js); err != nil {
		t.Fatalf("gearctl stats -json: %v", err)
	}
	checkStatsGolden(t, "stats.json", js.Bytes())

	// Save a baseline, publish more traffic, and diff: only the delta
	// shows for counters while gauges keep their current values.
	saved := filepath.Join(t.TempDir(), "before.json")
	if err := cmdStats([]string{"-url", srv.URL, "-save", saved}, io.Discard); err != nil {
		t.Fatalf("gearctl stats -save: %v", err)
	}
	reg.Counter("store.remote.objects").Add(5)
	reg.Gauge("cache.bytes").Set(600_000)
	var diff bytes.Buffer
	if err := cmdStats([]string{"-url", srv.URL, "-json", "-diff", saved}, &diff); err != nil {
		t.Fatalf("gearctl stats -diff: %v", err)
	}
	snap, err := telemetry.DecodeSnapshot(diff.Bytes())
	if err != nil {
		t.Fatalf("decode diff output: %v", err)
	}
	if got := snap.Counter("store.remote.objects"); got != 5 {
		t.Errorf("diffed counter = %d, want 5", got)
	}
	if got := snap.Counter("cache.hits"); got != 0 {
		t.Errorf("unchanged counter diff = %d, want 0", got)
	}
	if got := snap.Gauge("cache.bytes"); got != 600_000 {
		t.Errorf("gauge after diff = %d, want current value 600000", got)
	}

	// Error paths: dead server, and a diff file that does not exist.
	srv.Close()
	if err := cmdStats([]string{"-url", srv.URL}, io.Discard); err == nil {
		t.Error("stats against a dead server succeeded")
	}
	if err := cmdStats([]string{"-url", srv.URL, "-diff", "/nonexistent"}, io.Discard); err == nil {
		t.Error("stats with a missing diff file succeeded")
	}
}

// TestFleetSubcommand runs a small in-process fleet scenario through
// the CLI: the table render, the -json canonical form, determinism of
// the reported fingerprint across invocations, and the error paths.
func TestFleetSubcommand(t *testing.T) {
	args := []string{"-scenario", "flashcrowd", "-nodes", "8", "-seed", "7", "-scale", "0.2", "-versions", "2"}
	var a, b bytes.Buffer
	if err := cmdFleet(args, &a); err != nil {
		t.Fatalf("gearctl fleet: %v", err)
	}
	if err := cmdFleet(args, &b); err != nil {
		t.Fatalf("gearctl fleet (replay): %v", err)
	}
	if a.String() != b.String() {
		t.Errorf("fleet output not reproducible:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "fingerprint: ") {
		t.Errorf("fleet output missing fingerprint line:\n%s", a.String())
	}
	if !strings.Contains(a.String(), "total: 8 deploys") {
		t.Errorf("fleet output missing deploy total:\n%s", a.String())
	}

	var js bytes.Buffer
	if err := cmdFleet(append(args, "-json"), &js); err != nil {
		t.Fatalf("gearctl fleet -json: %v", err)
	}
	var res struct {
		Scenario     string `json:"scenario"`
		Nodes        int    `json:"nodes"`
		TotalDeploys int64  `json:"totalDeploys"`
	}
	if err := json.Unmarshal(js.Bytes(), &res); err != nil {
		t.Fatalf("fleet -json output: %v", err)
	}
	if res.Scenario != "flashcrowd" || res.Nodes != 8 || res.TotalDeploys != 8 {
		t.Errorf("fleet -json = %+v, want flashcrowd/8/8", res)
	}

	if err := cmdFleet([]string{"-scenario", "bogus", "-nodes", "4"}, io.Discard); err == nil {
		t.Error("fleet with unknown scenario succeeded")
	}
	if err := cmdFleet([]string{"-nodes", "0"}, io.Discard); err == nil {
		t.Error("fleet with zero nodes succeeded")
	}
}

// TestShardsSubcommand builds the deterministic in-process shard tier
// and checks the golden table and JSON renders, reproducibility, and
// the validation error paths.
func TestShardsSubcommand(t *testing.T) {
	args := []string{"-shards", "4", "-replicas", "2", "-scale", "0.2", "-versions", "2", "-seed", "7"}
	var a, b bytes.Buffer
	if err := cmdShards(args, &a); err != nil {
		t.Fatalf("gearctl shards: %v", err)
	}
	if err := cmdShards(args, &b); err != nil {
		t.Fatalf("gearctl shards (replay): %v", err)
	}
	if a.String() != b.String() {
		t.Errorf("shards output not reproducible:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.String(), b.String())
	}
	checkStatsGolden(t, "shards.txt", a.Bytes())

	var js bytes.Buffer
	if err := cmdShards(append(args, "-json"), &js); err != nil {
		t.Fatalf("gearctl shards -json: %v", err)
	}
	checkStatsGolden(t, "shards.json", js.Bytes())
	var st shardreg.Stats
	if err := json.Unmarshal(js.Bytes(), &st); err != nil {
		t.Fatalf("shards -json output: %v", err)
	}
	if len(st.Shards) != 4 || st.Replication != 2 {
		t.Fatalf("shards -json = %d shards x %d replicas, want 4x2", len(st.Shards), st.Replication)
	}
	var objects int
	var share float64
	for _, s := range st.Shards {
		objects += s.Objects
		share += s.OwnedShare
		if s.Down {
			t.Errorf("%s reported down in a fresh tier", s.ID)
		}
	}
	if objects != st.Objects {
		t.Errorf("per-shard objects sum %d != tier total %d", objects, st.Objects)
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("owned shares sum to %f, want 1", share)
	}

	// Read passes with balancing, hedging, and an auto-picked straggler:
	// the read-split and hedge columns land in the table and the JSON,
	// and the run stays bit-reproducible.
	hedged := append(args, "-readpass", "3", "-balance", "-hedge", "-slow", "auto")
	var h1, h2 bytes.Buffer
	if err := cmdShards(hedged, &h1); err != nil {
		t.Fatalf("gearctl shards (hedged): %v", err)
	}
	if err := cmdShards(hedged, &h2); err != nil {
		t.Fatalf("gearctl shards (hedged replay): %v", err)
	}
	if h1.String() != h2.String() {
		t.Errorf("hedged shards output not reproducible:\n--- run 1 ---\n%s--- run 2 ---\n%s", h1.String(), h2.String())
	}
	checkStatsGolden(t, "shards_hedged.txt", h1.Bytes())
	var hjs bytes.Buffer
	if err := cmdShards(append(hedged, "-json"), &hjs); err != nil {
		t.Fatalf("gearctl shards (hedged) -json: %v", err)
	}
	checkStatsGolden(t, "shards_hedged.json", hjs.Bytes())
	var hst shardreg.Stats
	if err := json.Unmarshal(hjs.Bytes(), &hst); err != nil {
		t.Fatalf("hedged shards -json output: %v", err)
	}
	if hst.Reads == 0 || hst.BalancedReads == 0 {
		t.Errorf("hedged read pass served %d reads (%d balanced), want both > 0",
			hst.Reads, hst.BalancedReads)
	}
	var shareSum float64
	for _, s := range hst.Shards {
		shareSum += s.ReadShare
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Errorf("read shares sum to %f, want 1", shareSum)
	}

	if err := cmdShards([]string{"-shards", "0"}, io.Discard); err == nil {
		t.Error("shards with zero shards succeeded")
	}
	if err := cmdShards([]string{"-shards", "2", "-replicas", "5"}, io.Discard); err == nil {
		t.Error("shards with replication above the member count succeeded")
	}
}
