package experiments

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/dedup"
	"github.com/gear-image/gear/internal/telemetry"
)

var update = flag.Bool("update", false,
	"rewrite testdata/all_mini.golden from this run (declares a change to paper-facing numbers)")

// mini is an even smaller config than Quick for unit tests; experiments
// assert direction/shape, not calibrated magnitudes, at this scale.
func mini() Config {
	return Config{
		Seed:              99,
		Scale:             0.15,
		VersionsPerSeries: 3,
		SeriesPerCategory: 1,
		ChunkSize:         512,
		SlackerBlockSize:  512,
	}
}

// TestRunDispatch checks that IDs, All, Run and Result are four views of
// the one experiment table.
func TestRunDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("no-such-experiment", mini(), &buf); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("err = %v, want ErrUnknownExperiment", err)
	}
	if _, err := Result("nope", mini()); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("Result err = %v", err)
	}
	// The order itself (paper order: workload table, Table II, figures,
	// then extensions) is pinned by the section order of the golden.
	ids, all := IDs(), All()
	if len(ids) == 0 || len(ids) != len(all) || ids[0] != "inventory" {
		t.Fatalf("ids = %v, %d runners", ids, len(all))
	}
	seen := make(map[string]bool)
	for i, r := range all {
		if r.ID != ids[i] || r.Title == "" || r.Run == nil || seen[r.ID] {
			t.Errorf("runner %d (%q) incomplete, duplicated or out of step with IDs()[%d] = %q", i, r.ID, i, ids[i])
		}
		seen[r.ID] = true
		// Every id resolves (the error is the experiment's own, not
		// ErrUnknownExperiment), and fails fast on an invalid (zero)
		// config rather than succeeding with a nonsense corpus.
		if _, err := Result(r.ID, Config{}); err == nil || errors.Is(err, ErrUnknownExperiment) {
			t.Errorf("Result(%s, zero config) err = %v", r.ID, err)
		}
		if err := Run(r.ID, Config{}, &buf); err == nil || errors.Is(err, ErrUnknownExperiment) {
			t.Errorf("Run(%s, zero config) err = %v", r.ID, err)
		}
	}
}

func TestBandwidthScale(t *testing.T) {
	cfg := Default()
	if got := cfg.BandwidthScale(904); got != 0.904 {
		t.Errorf("BandwidthScale(904) = %f at scale 1.0", got)
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := RunTable2(mini())
	if err != nil {
		t.Fatal(err)
	}
	if res.Images != 18 { // 6 categories x 1 series x 3 versions
		t.Errorf("images = %d, want 18", res.Images)
	}
	rows := make(map[dedup.Granularity]dedup.Report)
	for _, r := range res.Rows {
		rows[r.Granularity] = r
	}
	if !(rows[dedup.None].StorageBytes > rows[dedup.Layer].StorageBytes &&
		rows[dedup.Layer].StorageBytes > rows[dedup.File].StorageBytes) {
		t.Errorf("storage not monotone: %+v", res.Rows)
	}
	if rows[dedup.Chunk].Objects <= rows[dedup.File].Objects {
		t.Error("chunk objects not above file objects")
	}
	if rows[dedup.CDC].Objects < rows[dedup.File].Objects {
		t.Error("cdc row missing or below file objects")
	}
	if rows[dedup.None].Objects != 18 {
		t.Errorf("none objects = %d", rows[dedup.None].Objects)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "chunk/file object blowup") {
		t.Error("print missing blowup line")
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := RunFig2(mini())
	if err != nil {
		t.Fatal(err)
	}
	if res.Average <= 0.1 || res.Average >= 0.9 {
		t.Errorf("average redundancy = %.2f, out of plausible range", res.Average)
	}
	for cat, v := range res.ByCategory {
		if v < 0 || v > 1 {
			t.Errorf("%s redundancy = %f", cat, v)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "average") {
		t.Error("print missing average")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := RunFig6(mini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for i := 1; i < len(res.Series); i++ {
		if res.Series[i-1].AvgUncompressedBytes > res.Series[i].AvgUncompressedBytes {
			t.Error("series not sorted by size")
		}
	}
	for _, s := range res.Series {
		if s.AvgHDD <= 0 || s.AvgSSD <= 0 {
			t.Errorf("%s: zero conversion time", s.Name)
		}
		if s.AvgSSD >= s.AvgHDD {
			t.Errorf("%s: ssd %v not faster than hdd %v", s.Name, s.AvgSSD, s.AvgHDD)
		}
	}
	if res.AvgHDD <= 0 {
		t.Error("zero average")
	}
	// Size-to-time proportionality is asserted in convert's own tests
	// with controlled file counts; at mini scale the min-files-per-package
	// floor decouples byte size from file count, so only the extremes are
	// compared here.
	var smallest, largest Fig6Series
	for i, s := range res.Series {
		if i == 0 || s.AvgUncompressedBytes < smallest.AvgUncompressedBytes {
			smallest = s
		}
		if i == 0 || s.AvgUncompressedBytes > largest.AvgUncompressedBytes {
			largest = s
		}
	}
	if largest.AvgUncompressedBytes > 4*smallest.AvgUncompressedBytes &&
		largest.AvgHDD <= smallest.AvgHDD {
		t.Errorf("4x larger %s (%v) not slower than %s (%v)",
			largest.Name, largest.AvgHDD, smallest.Name, smallest.AvgHDD)
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := RunFig7(mini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Categories) != 6 {
		t.Fatalf("categories = %d", len(res.Categories))
	}
	for _, row := range res.Categories {
		if row.DockerBytes <= 0 || row.GearBytes <= 0 {
			t.Errorf("%s: empty registries", row.Category)
		}
	}
	if res.Overall.Saving() <= 0 {
		t.Errorf("overall saving = %.2f, want positive", res.Overall.Saving())
	}
	if res.AvgIndexBytes <= 0 || res.IndexShare <= 0 || res.IndexShare > 0.25 {
		t.Errorf("index accounting: avg %d bytes, share %.3f", res.AvgIndexBytes, res.IndexShare)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "overall") {
		t.Error("print missing overall row")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := RunFig8(mini())
	if err != nil {
		t.Fatal(err)
	}
	if !(res.WarmShare < res.ColdShare && res.ColdShare < 1) {
		t.Errorf("shares not ordered: warm %.2f cold %.2f", res.WarmShare, res.ColdShare)
	}
	for _, row := range res.Categories {
		if row.GearWarmBytes > row.GearColdBytes {
			t.Errorf("%s: warm %d > cold %d", row.Category, row.GearWarmBytes, row.GearColdBytes)
		}
		if row.GearColdBytes >= row.DockerBytes {
			t.Errorf("%s: gear cold %d >= docker %d", row.Category, row.GearColdBytes, row.DockerBytes)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := RunFig9(mini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bands) != 4 {
		t.Fatalf("bands = %d", len(res.Bands))
	}
	prevWarm := 0.0
	for _, band := range res.Bands {
		if band.SpeedupWarm < band.SpeedupCold {
			t.Errorf("%g Mbps: warm speedup %.2f < cold %.2f",
				band.Mbps, band.SpeedupWarm, band.SpeedupCold)
		}
		if band.SpeedupWarm < prevWarm {
			t.Errorf("%g Mbps: speedup %.2f decreased as bandwidth dropped (prev %.2f)",
				band.Mbps, band.SpeedupWarm, prevWarm)
		}
		prevWarm = band.SpeedupWarm
	}
	// At the lowest bandwidth Gear must be clearly faster.
	last := res.Bands[len(res.Bands)-1]
	if last.SpeedupWarm < 1.3 {
		t.Errorf("5 Mbps warm speedup = %.2f, want > 1.3", last.SpeedupWarm)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "5 Mbps") {
		t.Error("print missing bandwidth header")
	}
}

func TestFig10Shape(t *testing.T) {
	cfg := mini()
	cfg.VersionsPerSeries = 6
	res, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bands) != 2 {
		t.Fatalf("bands = %d", len(res.Bands))
	}
	for _, band := range res.Bands {
		if len(band.Points) != 6 {
			t.Fatalf("points = %d", len(band.Points))
		}
		// Gear's later versions benefit from file sharing.
		if band.Points[5].Gear >= band.Points[0].Gear {
			t.Errorf("%g Mbps: gear v6 (%v) not faster than v1 (%v)",
				band.Mbps, band.Points[5].Gear, band.Points[0].Gear)
		}
	}
	// At 100 Mbps Gear beats both on average.
	slow := res.Bands[1]
	if slow.AvgG >= slow.AvgD {
		t.Errorf("100 Mbps: gear avg %v not faster than docker %v", slow.AvgG, slow.AvgD)
	}
	// Slacker degrades with bandwidth much more than Gear (many small
	// block transfers).
	gearSlowdown := float64(res.Bands[1].AvgG) / float64(res.Bands[0].AvgG)
	slackerSlowdown := float64(res.Bands[1].AvgS) / float64(res.Bands[0].AvgS)
	if slackerSlowdown <= gearSlowdown {
		t.Errorf("slacker slowdown %.2f not worse than gear %.2f", slackerSlowdown, gearSlowdown)
	}
}

func TestFig11Shape(t *testing.T) {
	cfg := mini()
	res, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Services) != 4 {
		t.Fatalf("services = %d", len(res.Services))
	}
	for _, s := range res.Services {
		if n := s.Normalized(); n < 0.7 || n > 1.3 {
			t.Errorf("%s normalized rate = %.3f, want ~1.0", s.Name, n)
		}
	}
	if res.GearShort.Destroy >= res.DockerShort.Destroy {
		t.Errorf("gear destroy %v not faster than docker %v",
			res.GearShort.Destroy, res.DockerShort.Destroy)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "short-running") {
		t.Error("print missing short-running block")
	}
}

func TestExtLoadShape(t *testing.T) {
	res, err := RunExtLoad(mini())
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != 8 || res.Deploys != 3 {
		t.Errorf("shape = %d clients x %d deploys", res.Clients, res.Deploys)
	}
	if res.GearEgress >= res.DockerEgress {
		t.Errorf("gear egress %d not below docker %d", res.GearEgress, res.DockerEgress)
	}
	if res.GearMeanTime >= res.DockerMeanTime {
		t.Errorf("gear mean %v not below docker %v", res.GearMeanTime, res.DockerMeanTime)
	}
	if s := res.EgressSaving(); s < 0.3 {
		t.Errorf("egress saving = %.2f, want > 0.3", s)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "registry egress") {
		t.Error("print missing egress line")
	}
}

func TestInventoryShape(t *testing.T) {
	res, err := RunInventory(mini())
	if err != nil {
		t.Fatal(err)
	}
	if res.Series != 6 || res.Images != 18 || len(res.Categories) != 6 {
		t.Fatalf("shape = %d series / %d images / %d categories",
			res.Series, res.Images, len(res.Categories))
	}
	for _, row := range res.Categories {
		if row.AvgImageBytes <= 0 || row.AvgFiles <= 0 {
			t.Errorf("%s: empty stats", row.Category)
		}
		// At mini scale the min-files-per-package floor inflates the hot
		// share; only sanity-check the range here (the calibrated window
		// of 12-26% is verified at full scale in EXPERIMENTS.md).
		if row.NecessaryRatio <= 0 || row.NecessaryRatio >= 1 {
			t.Errorf("%s: necessary ratio %.2f out of range", row.Category, row.NecessaryRatio)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "corpus:") {
		t.Error("print missing summary")
	}
}

func TestExtCacheShape(t *testing.T) {
	res, err := RunExtCache(mini())
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueBytes <= 0 || len(res.Points) != 7 {
		t.Fatalf("shape = %d bytes, %d points", res.UniqueBytes, len(res.Points))
	}
	unlimited := res.Points[0]
	if unlimited.Evictions != 0 {
		t.Errorf("unlimited cache evicted %d times", unlimited.Evictions)
	}
	// Tighter caches can only fetch as much or more.
	for _, p := range res.Points[1:] {
		if p.RemoteBytes < unlimited.RemoteBytes {
			t.Errorf("%v/%s fetched less (%d) than unlimited (%d)",
				p.CapacityFrac, p.Policy, p.RemoteBytes, unlimited.RemoteBytes)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "unlimited") {
		t.Error("print missing unlimited row")
	}
}

func TestExtParallelShape(t *testing.T) {
	res, err := RunExtParallel(mini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(extParallelWorkers) || res.Deploys == 0 {
		t.Fatalf("shape = %d points, %d deploys", len(res.Points), res.Deploys)
	}
	base := res.Points[0]
	if base.Workers != 1 || base.Speedup != 1 {
		t.Errorf("baseline point = workers %d, speedup %.2f", base.Workers, base.Speedup)
	}
	for i, p := range res.Points {
		// Parallelism must not change what is fetched.
		if p.Bytes != base.Bytes || p.Requests != base.Requests {
			t.Errorf("workers=%d: bytes/requests = %d/%d, want %d/%d",
				p.Workers, p.Bytes, p.Requests, base.Bytes, base.Requests)
		}
		// Deploy time is monotonically non-increasing in workers.
		if i > 0 && p.DeployTime > res.Points[i-1].DeployTime {
			t.Errorf("deploy time rose from workers=%d (%v) to workers=%d (%v)",
				res.Points[i-1].Workers, res.Points[i-1].DeployTime, p.Workers, p.DeployTime)
		}
	}
	if last := res.Points[len(res.Points)-1]; last.Speedup < 1 {
		t.Errorf("workers=%d slower than serial: speedup %.2f", last.Workers, last.Speedup)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "workers") {
		t.Error("print missing workers column")
	}
}

func TestExtPushShape(t *testing.T) {
	res, err := RunExtPush(mini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(extPushWorkers) || res.Images == 0 {
		t.Fatalf("shape = %d points, %d images", len(res.Points), res.Images)
	}
	base := res.Points[0]
	if base.Workers != 1 || base.Speedup != 1 {
		t.Errorf("baseline point = workers %d, speedup %.2f", base.Workers, base.Speedup)
	}
	if base.Uploaded == 0 || base.Skipped == 0 {
		t.Errorf("rollout uploaded %d / skipped %d; want both nonzero", base.Uploaded, base.Skipped)
	}
	// The batch protocol pays one query round trip per image.
	if base.QueryRoundTrips != int64(res.Images) {
		t.Errorf("query round trips = %d, want one per image (%d)", base.QueryRoundTrips, res.Images)
	}
	for i, p := range res.Points {
		// Parallelism must not change what is pushed.
		if p.Uploaded != base.Uploaded || p.UploadedBytes != base.UploadedBytes ||
			p.Skipped != base.Skipped || p.DedupRatio != base.DedupRatio {
			t.Errorf("workers=%d: uploads/bytes/dedup = %d/%d/%.4f, want %d/%d/%.4f",
				p.Workers, p.Uploaded, p.UploadedBytes, p.DedupRatio,
				base.Uploaded, base.UploadedBytes, base.DedupRatio)
		}
		// Push time is monotonically non-increasing in workers.
		if i > 0 && p.PushTime > res.Points[i-1].PushTime {
			t.Errorf("push time rose from workers=%d (%v) to workers=%d (%v)",
				res.Points[i-1].Workers, res.Points[i-1].PushTime, p.Workers, p.PushTime)
		}
	}
	if last := res.Points[len(res.Points)-1]; last.Speedup < 1 {
		t.Errorf("workers=%d slower than serial: speedup %.2f", last.Workers, last.Speedup)
	}
	// The dedup fast path: a fully present image costs one QueryBatch
	// round trip and zero uploads.
	if res.WarmQueryRoundTrips != 1 || res.WarmUploads != 0 {
		t.Errorf("warm re-push = %d round trips, %d uploads; want 1, 0",
			res.WarmQueryRoundTrips, res.WarmUploads)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "dedup") {
		t.Error("print missing dedup column")
	}
}

func TestExtP2PShape(t *testing.T) {
	res, err := RunExtP2P(mini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(extP2PSweep) || res.Versions == 0 {
		t.Fatalf("shape = %d points, %d versions", len(res.Points), res.Versions)
	}
	for i := range res.Points {
		p := &res.Points[i]
		// The exchange never changes what a node receives, only where
		// the bytes come from.
		if !p.ParityOK {
			t.Errorf("%d nodes @ %g Mbps: per-node received bytes differ between passes",
				p.Nodes, p.WANMbps)
		}
		if p.Nodes == 1 {
			// Single-node degeneration is exact: no peers to find, zero
			// LAN traffic, byte-identical registry egress.
			if p.LANBytes != 0 || p.PeerObjects != 0 {
				t.Errorf("lone node moved %d LAN bytes / %d peer objects", p.LANBytes, p.PeerObjects)
			}
			if p.P2PEgress != p.BaselineEgress {
				t.Errorf("lone node egress = %d with peers, %d without", p.P2PEgress, p.BaselineEgress)
			}
		} else {
			if p.LANBytes == 0 || p.PeerObjects == 0 {
				t.Errorf("%d nodes: no peer traffic", p.Nodes)
			}
			if p.P2PEgress >= p.BaselineEgress {
				t.Errorf("%d nodes: peers did not reduce egress (%d vs %d)",
					p.Nodes, p.P2PEgress, p.BaselineEgress)
			}
		}
		// Baseline clients are independent and deterministic, so fleet
		// egress is exactly linear in the fleet size.
		if base := res.Points[0].BaselineEgress; p.BaselineEgress != base*int64(p.Nodes) {
			t.Errorf("%d nodes baseline egress = %d, want %d x %d",
				p.Nodes, p.BaselineEgress, p.Nodes, base)
		}
	}
	// The acceptance point: 8 peers on a 20 Mbps uplink cut registry
	// egress by at least half.
	for i := range res.Points {
		p := &res.Points[i]
		if p.Nodes == 8 && p.WANMbps == 20 && p.EgressSaving() < 0.5 {
			t.Errorf("8 nodes @ 20 Mbps saved %.1f%%, want >= 50%%", p.EgressSaving()*100)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "registry egress") {
		t.Error("print missing egress column")
	}
}

func TestPickSeriesRespectsCap(t *testing.T) {
	cfg := mini()
	co, err := cfg.newCorpus(nil)
	if err != nil {
		t.Fatal(err)
	}
	picked := cfg.pickSeries(co)
	counts := make(map[corpus.Category]int)
	for _, s := range picked {
		counts[s.Category]++
	}
	for cat, n := range counts {
		if n > 1 {
			t.Errorf("%s picked %d series, cap 1", cat, n)
		}
	}
	cfg.SeriesPerCategory = 0
	if got := len(cfg.pickSeries(co)); got != 50 {
		t.Errorf("uncapped pick = %d series", got)
	}
}

// telemetryProof names, for each experiment whose daemons or clusters
// once ignored Config.Telemetry, a counter only they can move in a
// shared registry (extp2p's baseline daemons always published; its peer
// daemons are the ones that fetch from peers).
var telemetryProof = map[string]string{
	"extcache":    "store.remote.objects",
	"extparallel": "store.remote.objects",
	"extp2p":      "store.peer.objects",
	"exthedge":    "shardreg.download.requests",
}

// TestRunAllMini is the record of paper-facing results: the printed
// report of every experiment at mini scale, compared exactly against
// testdata/all_mini.golden. Every cell is a seed-determined virtual-time
// value, so a moved row is either claimed by its PR (refresh with
// -update and review the diff) or a bug. The report must not depend on
// whether the run shares one metrics registry (benchreport -metrics), so
// it is produced both ways.
func TestRunAllMini(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice; skipped in -short mode")
	}
	const golden = "testdata/all_mini.golden"

	var private bytes.Buffer
	if err := Run("all", mini(), &private); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, private.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	compareReport(t, "private registries", private.String(), string(want))

	// The same report section by section into one registry, reading the
	// proof counters around each experiment.
	cfg := mini()
	cfg.Telemetry = telemetry.NewRegistry()
	var shared bytes.Buffer
	for _, r := range All() {
		before := cfg.Telemetry.Snapshot()
		fmt.Fprintf(&shared, sectionHeader, r.ID, r.Title)
		if err := r.Run(cfg, &shared); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if name, ok := telemetryProof[r.ID]; ok {
			if grew := cfg.Telemetry.Snapshot().Counter(name) - before.Counter(name); grew <= 0 {
				t.Errorf("%s moved %s by %d in the shared registry, want > 0", r.ID, name, grew)
			}
		}
	}
	compareReport(t, "one shared registry", shared.String(), string(want))
}

// compareReport fails with the rows that moved, each under its section.
func compareReport(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	// rows keys every line by its section, so an identical row in two
	// experiments is not mistaken for one that stayed.
	rows := func(report string) ([]string, map[string]int) {
		var keys []string
		count := make(map[string]int)
		section := ""
		for _, line := range strings.Split(report, "\n") {
			if strings.HasPrefix(line, "=== ") {
				section = strings.Fields(line)[1]
			}
			key := section + ": " + line
			keys = append(keys, key)
			count[key]++
		}
		return keys, count
	}
	gotKeys, gotCount := rows(got)
	wantKeys, wantCount := rows(want)
	var b strings.Builder
	for _, k := range wantKeys {
		if gotCount[k] > 0 {
			gotCount[k]--
		} else {
			fmt.Fprintf(&b, "  -%s\n", k)
		}
	}
	for _, k := range gotKeys {
		if wantCount[k] > 0 {
			wantCount[k]--
		} else {
			fmt.Fprintf(&b, "  +%s\n", k)
		}
	}
	t.Errorf("report with %s differs from testdata/all_mini.golden (- golden, + this run):\n%s"+
		"if the change is intended, rerun with -update and claim the moved rows in the PR", label, b.String())
}

func TestExtPrefetchShape(t *testing.T) {
	res, err := RunExtPrefetch(mini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(extPrefetchSweep) || res.ProfileEntries == 0 {
		t.Fatalf("shape = %d points, %d profile entries", len(res.Points), res.ProfileEntries)
	}
	for i := range res.Points {
		p := &res.Points[i]
		// The replay moves recorded objects early; it never adds WAN
		// traffic the lazy baseline would not have pulled.
		if p.GuidedBytes != p.BaselineBytes {
			t.Errorf("coverage %g @ %g Mbps: guided moved %d bytes, baseline %d",
				p.Coverage, p.WANMbps, p.GuidedBytes, p.BaselineBytes)
		}
		if p.Coverage == 0 {
			// Empty-profile degeneration is exact: nothing prefetched,
			// stall and misses identical to the baseline.
			if p.PrefetchBytes != 0 || p.PrefetchHits != 0 {
				t.Errorf("empty profile prefetched %d bytes, %d hits",
					p.PrefetchBytes, p.PrefetchHits)
			}
			if p.GuidedStall != p.BaselineStall || p.GuidedMisses != p.BaselineMisses {
				t.Errorf("empty profile changed stall %v->%v, misses %d->%d",
					p.BaselineStall, p.GuidedStall, p.BaselineMisses, p.GuidedMisses)
			}
		} else {
			if p.PrefetchBytes == 0 || p.PrefetchHits == 0 {
				t.Errorf("coverage %g: no prefetch traffic or hits", p.Coverage)
			}
			if p.GuidedStall >= p.BaselineStall {
				t.Errorf("coverage %g @ %g Mbps: stall not reduced (%v vs %v)",
					p.Coverage, p.WANMbps, p.GuidedStall, p.BaselineStall)
			}
			if p.GuidedMisses >= p.BaselineMisses {
				t.Errorf("coverage %g: misses not reduced (%d vs %d)",
					p.Coverage, p.GuidedMisses, p.BaselineMisses)
			}
		}
		if p.Coverage == 1 {
			// The whole startup trace is warm: the run phase never
			// touches the registry.
			if p.GuidedMisses != 0 || p.GuidedStall != 0 {
				t.Errorf("full coverage left %d misses, %v stall", p.GuidedMisses, p.GuidedStall)
			}
			if p.PrefetchWasted != 0 {
				t.Errorf("full coverage wasted %d prefetched objects", p.PrefetchWasted)
			}
		}
	}
	// The acceptance point: a warm profile at the paper's 20 Mbps edge
	// link removes at least 40% of the demand stall.
	for i := range res.Points {
		p := &res.Points[i]
		if p.Coverage == 1 && p.WANMbps == 20 && p.StallReduction() < 0.4 {
			t.Errorf("full profile @ 20 Mbps reduced stall %.1f%%, want >= 40%%",
				p.StallReduction()*100)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "less demand stall") {
		t.Error("print missing stall-reduction summary")
	}
}

func TestExtShardShape(t *testing.T) {
	res, err := RunExtShard(mini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(extShardSweep) || res.Versions == 0 {
		t.Fatalf("shape = %d points, %d versions", len(res.Points), res.Versions)
	}
	one := &res.Points[0]
	if one.Shards != 1 || one.Replication != 1 {
		t.Fatalf("first point = %d shards x %d replicas, want 1x1", one.Shards, one.Replication)
	}
	// The 1-shard/1-replica tier degenerates exactly to the single-node
	// registry: same client bytes, same deploy times, one shard serving
	// the whole tier.
	if one.ClientEgress != res.BaselineEgress {
		t.Errorf("1-shard client egress = %d, baseline %d", one.ClientEgress, res.BaselineEgress)
	}
	if one.MeanDeploy != res.BaselineMeanTime {
		t.Errorf("1-shard mean deploy = %v, baseline %v", one.MeanDeploy, res.BaselineMeanTime)
	}
	if one.MaxShardEgress != one.TierEgress {
		t.Errorf("1-shard max = %d, tier = %d", one.MaxShardEgress, one.TierEgress)
	}
	for i := range res.Points {
		p := &res.Points[i]
		// Sharding changes who serves, never what a client downloads.
		if !p.ParityOK {
			t.Errorf("%d shards: per-client bytes differ from baseline", p.Shards)
		}
		if p.ClientEgress != one.ClientEgress {
			t.Errorf("%d shards: client egress = %d, want %d", p.Shards, p.ClientEgress, one.ClientEgress)
		}
		if p.TierEgress != one.TierEgress {
			t.Errorf("%d shards: tier egress = %d, want %d", p.Shards, p.TierEgress, one.TierEgress)
		}
		if p.MeanDeploy != res.BaselineMeanTime {
			t.Errorf("%d shards: mean deploy = %v, want %v", p.Shards, p.MeanDeploy, res.BaselineMeanTime)
		}
		// Splitting the tier strictly sheds load off the hottest shard...
		if i > 0 {
			prev := &res.Points[i-1]
			if p.MaxShardEgress >= prev.MaxShardEgress {
				t.Errorf("%d shards: max shard egress %d did not drop from %d at %d shards",
					p.Shards, p.MaxShardEgress, prev.MaxShardEgress, prev.Shards)
			}
			if p.MaxShardServe >= prev.MaxShardServe {
				t.Errorf("%d shards: max shard busy %v did not drop from %v at %d shards",
					p.Shards, p.MaxShardServe, prev.MaxShardServe, prev.Shards)
			}
		}
	}
	// ...and near-linearly: even at this tiny object population the
	// 8-shard tier's hottest member carries well under half the 1-shard
	// load (the quick/default corpus lands near the ideal 1/8).
	last := &res.Points[len(res.Points)-1]
	if 2*last.MaxShardEgress >= one.MaxShardEgress {
		t.Errorf("8-shard hottest egress %d, not even 2x below 1-shard %d",
			last.MaxShardEgress, one.MaxShardEgress)
	}
	if 2*last.MaxShardServe >= one.MaxShardServe {
		t.Errorf("8-shard hottest busy %v, not even 2x below 1-shard %v",
			last.MaxShardServe, one.MaxShardServe)
	}
	f := &res.Failover
	if f.Shards != extShardFailAt || f.Replication != 2 || f.Killed == "" {
		t.Fatalf("failover pass = %+v", f)
	}
	if f.Failovers == 0 {
		t.Error("killed the busiest shard but saw no failovers")
	}
	if !f.ParityOK {
		t.Error("failover pass: per-client bytes differ from baseline")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	for _, want := range []string{"tier egress", "failover", "parity"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("print missing %q", want)
		}
	}
}

func TestExtHedgeShape(t *testing.T) {
	// Quick, not mini: the p99-gain acceptance bound needs a corpus big
	// enough that the straggler tail clears the healthy size tail.
	res, err := RunExtHedge(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 || res.Objects == 0 || res.SlowShard == "" {
		t.Fatalf("shape = %d cells, %d objects, slow shard %q",
			len(res.Cells), res.Objects, res.SlowShard)
	}
	if res.ReadsPerCell != res.Rounds*res.Objects {
		t.Fatalf("reads per cell = %d, want %d x %d", res.ReadsPerCell, res.Rounds, res.Objects)
	}
	cell := func(policy string, straggle bool) *ExtHedgeCell {
		t.Helper()
		for i := range res.Cells {
			if res.Cells[i].Policy == policy && res.Cells[i].Straggler == straggle {
				return &res.Cells[i]
			}
		}
		t.Fatalf("no cell (%s, %v)", policy, straggle)
		return nil
	}
	// Acceptance: identical client bytes in every cell, exact rank-order
	// degeneration with the zero read options, tail rescued at bounded
	// extra egress.
	if !res.ParityOK {
		t.Error("client bytes differ across read policies")
	}
	if !res.DegenerationOK {
		t.Error("rank-order cells deviated from the primary-only path")
	}
	if res.P99Gain < 3 {
		t.Errorf("straggler p99 gain = %.2fx, want >= 3x", res.P99Gain)
	}
	if !res.WasteOK || res.WasteShare >= 0.05 {
		t.Errorf("hedge waste share = %.4f, want < 0.05", res.WasteShare)
	}
	// The straggler must actually hurt the rank-order policy...
	rankSlow, rankOK := cell("primary", true), cell("primary", false)
	if rankSlow.P99 <= 2*rankOK.P99 {
		t.Errorf("straggler p99 %v vs healthy %v: straggler had no bite", rankSlow.P99, rankOK.P99)
	}
	// ...while balancing routes around it: its read share collapses
	// versus the rank-order run.
	balSlow := cell("balanced", true)
	if balSlow.SlowShardReadShare*2 >= rankSlow.SlowShardReadShare {
		t.Errorf("balanced slow-shard share %.3f, rank-order %.3f: balancer did not avoid it",
			balSlow.SlowShardReadShare, rankSlow.SlowShardReadShare)
	}
	if balSlow.BalancedReads == 0 {
		t.Error("balanced cell recorded no balanced reads")
	}
	// Hedges are insurance: against a straggler some must fire and win;
	// with every shard healthy the size-aware trigger keeps quiet.
	hedgeSlow, hedgeOK := cell("hedged", true), cell("hedged", false)
	if hedgeSlow.HedgesFired == 0 || hedgeSlow.HedgesWon == 0 {
		t.Errorf("straggler hedged cell fired %d won %d, want both > 0",
			hedgeSlow.HedgesFired, hedgeSlow.HedgesWon)
	}
	if hedgeOK.HedgeWasteBytes*20 >= hedgeOK.ClientBytes {
		t.Errorf("healthy hedged cell wasted %d of %d client bytes",
			hedgeOK.HedgeWasteBytes, hedgeOK.ClientBytes)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	for _, want := range []string{"p99", "straggler", "hedge extra egress", "degeneration"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("print missing %q", want)
		}
	}
}

func TestExtChunkShape(t *testing.T) {
	res, err := RunExtChunk(mini())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 || len(res.Degen) != 2 {
		t.Fatalf("points = %d, degen = %d", len(res.Points), len(res.Degen))
	}
	for _, p := range res.Points {
		if !p.ParityOK {
			t.Errorf("point %dKB/%dKB/%dKB: client bytes not exact",
				p.FileBytes>>10, p.ChunkAvg>>10, p.WindowBytes>>10)
		}
		if !p.WindowOK || p.PeakWindowBytes == 0 {
			t.Errorf("point %dKB/%dKB/%dKB: window peak %d vs budget %d",
				p.FileBytes>>10, p.ChunkAvg>>10, p.WindowBytes>>10,
				p.PeakWindowBytes, p.WindowBytes)
		}
		if p.Chunks < 2 {
			t.Errorf("file %d at avg %d produced %d chunks", p.FileBytes, p.ChunkAvg, p.Chunks)
		}
		// The startup read must stall on strictly less than the file, and
		// the modeled stall must drop accordingly.
		if p.DemandBytes >= p.FileBytes || p.DemandBytes < p.HeadBytes {
			t.Errorf("demand bytes %d outside (%d, %d)", p.DemandBytes, p.HeadBytes, p.FileBytes)
		}
		if p.FirstReadStall >= p.WholeFileStall {
			t.Errorf("first-read stall %v not below whole-file %v", p.FirstReadStall, p.WholeFileStall)
		}
	}
	for _, d := range res.Degen {
		if !d.BytesExact || !d.TimingExact || !d.ParityOK {
			t.Errorf("degeneration at %d bytes: %+v", d.FileBytes, d)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	for _, want := range []string{"stall reduction", "degeneration", "parity"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("print missing %q", want)
		}
	}
}
