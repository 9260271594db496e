package shardreg

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/telemetry"
)

// corpus returns n deterministic objects keyed by fingerprint.
func corpus(t testing.TB, n int) map[hashing.Fingerprint][]byte {
	t.Helper()
	out := make(map[hashing.Fingerprint][]byte, n)
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte(fmt.Sprintf("gear object %d ", i)), 4+i%7)
		out[hashing.FingerprintBytes(data)] = data
	}
	return out
}

func newCluster(t testing.TB, shards, replicas int, opts Options) *Cluster {
	t.Helper()
	opts.Shards = ringShards(shards)
	opts.Replication = replicas
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func uploadAll(t testing.TB, dst gearregistry.Store, objs map[hashing.Fingerprint][]byte) {
	t.Helper()
	for fp, data := range objs {
		if err := dst.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
}

// holds reports whether member id physically stores fp, asking its
// registry directly rather than through the router.
func holds(t *testing.T, c *Cluster, id string, fp hashing.Fingerprint) bool {
	t.Helper()
	ok, err := c.shards[id].reg.Query(fp)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); !errors.Is(err, ErrNoShards) {
		t.Fatalf("no shards: err = %v", err)
	}
	if _, err := New(Options{Shards: []string{"a"}, Replication: 2}); !errors.Is(err, ErrBadReplication) {
		t.Fatalf("replication > shards: err = %v", err)
	}
	if _, err := New(Options{Shards: []string{"bad id"}}); !errors.Is(err, ErrBadShardID) {
		t.Fatalf("bad shard id: err = %v", err)
	}
	if _, err := New(Options{Shards: []string{"a", "a"}}); !errors.Is(err, ErrDuplicateShard) {
		t.Fatalf("duplicate shard: err = %v", err)
	}
}

// Round trip across a replicated tier: every verb works through the
// router, and each object lands on exactly Replication shards.
func TestClusterRoundTrip(t *testing.T) {
	c := newCluster(t, 4, 2, Options{})
	objs := corpus(t, 40)
	uploadAll(t, c, objs)

	var fps []hashing.Fingerprint
	for fp, data := range objs {
		fps = append(fps, fp)
		present, err := c.Query(fp)
		if err != nil || !present {
			t.Fatalf("Query(%s) = %v, %v", fp, present, err)
		}
		got, _, err := c.Download(fp)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Download(%s) mismatch (err %v)", fp, err)
		}
	}

	present, err := c.QueryBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range present {
		if !present[i] {
			t.Fatalf("QueryBatch missed %s", fps[i])
		}
	}
	payloads, wire, err := c.DownloadBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	if wire <= 0 {
		t.Fatalf("wire = %d", wire)
	}
	for i, p := range payloads {
		if !bytes.Equal(p, objs[fps[i]]) {
			t.Fatalf("DownloadBatch payload %d mismatch", i)
		}
	}

	st := c.Stats()
	if st.Objects != 2*len(objs) {
		t.Fatalf("tier holds %d replica copies, want %d", st.Objects, 2*len(objs))
	}
	// Placement agrees with the ring: each object is stored on exactly
	// its replica set.
	for _, fp := range fps {
		want := c.Replicas(fp)
		if len(want) != 2 {
			t.Fatalf("Replicas(%s) = %v", fp, want)
		}
		for _, id := range want {
			if !holds(t, c, id, fp) {
				t.Fatalf("replica %s missing %s", id, fp)
			}
		}
	}
}

// A 1-shard, 1-replica cluster must degenerate bit-identically to a
// single compressed registry: same payloads, same wire bytes, same
// stored bytes.
func TestSingleShardParity(t *testing.T) {
	single := gearregistry.New(gearregistry.Options{Compress: true})
	c := newCluster(t, 1, 1, Options{Compress: true})
	objs := corpus(t, 30)
	uploadAll(t, single, objs)
	uploadAll(t, c, objs)

	var fps []hashing.Fingerprint
	for fp := range objs {
		fps = append(fps, fp)
	}

	for _, fp := range fps {
		wantP, wantW, err := single.Download(fp)
		if err != nil {
			t.Fatal(err)
		}
		gotP, gotW, err := c.Download(fp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantP, gotP) || wantW != gotW {
			t.Fatalf("Download(%s): wire %d vs %d", fp, gotW, wantW)
		}
	}

	wantPs, wantW, err := single.DownloadBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	gotPs, gotW, err := c.DownloadBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	if wantW != gotW {
		t.Fatalf("batch wire %d, single registry %d", gotW, wantW)
	}
	for i := range wantPs {
		if !bytes.Equal(wantPs[i], gotPs[i]) {
			t.Fatalf("batch payload %d mismatch", i)
		}
	}

	if got, want := c.Stats().StoredBytes, single.Stats().StoredBytes; got != want {
		t.Fatalf("tier stores %d bytes, single registry %d", got, want)
	}

	// Absent objects still read as a single registry: ErrNotFound.
	if _, _, err := c.Download(hashing.FingerprintBytes([]byte("absent"))); !errors.Is(err, gearregistry.ErrNotFound) {
		t.Fatalf("absent download err = %v", err)
	}
	if _, _, err := c.DownloadBatch([]hashing.Fingerprint{hashing.FingerprintBytes([]byte("absent"))}); !errors.Is(err, gearregistry.ErrNotFound) {
		t.Fatalf("absent batch err = %v", err)
	}
}

// With replication 2, killing any single shard must leave every object
// readable from its surviving replica, and the failovers counter must
// record the re-routes.
func TestFailoverServesFromReplica(t *testing.T) {
	c := newCluster(t, 4, 2, Options{})
	objs := corpus(t, 40)
	uploadAll(t, c, objs)

	victim := c.Shards()[0]
	if err := c.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	var fps []hashing.Fingerprint
	for fp, data := range objs {
		fps = append(fps, fp)
		got, _, err := c.Download(fp)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Download(%s) with %s down: %v", fp, victim, err)
		}
	}
	payloads, _, err := c.DownloadBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if !bytes.Equal(p, objs[fps[i]]) {
			t.Fatalf("batch payload %d mismatch with %s down", i, victim)
		}
	}
	if c.Stats().Failovers == 0 {
		t.Fatal("no failovers recorded despite a dead primary")
	}

	// Kill every replica of some object: reads must fail with
	// ErrShardDown once no replica is live.
	for _, id := range c.Shards() {
		_ = c.KillShard(id)
	}
	if _, _, err := c.Download(fps[0]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("all-down download err = %v", err)
	}
	if _, _, err := c.DownloadBatch(fps[:3]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("all-down batch err = %v", err)
	}

	if err := c.ReviveShard(victim); err != nil {
		t.Fatal(err)
	}
}

// Uploads during a partial outage land on the surviving replicas
// (counted degraded), and ReviveShard backfills the revived shard before
// it serves: a batch read of the objects it is primary for, which takes
// a missing object as a permanent error, finds every one of them.
func TestDegradedUploadAndBackfill(t *testing.T) {
	topo, err := netsim.NewTopology(netsim.DefaultLAN().WithBandwidth(20), netsim.DefaultLAN())
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 3, 2, Options{Topology: topo})
	victim := c.Shards()[0]
	objs := corpus(t, 30)
	fps := sortedFps(objs)
	for i, fp := range fps {
		if i == 10 {
			if err := c.KillShard(victim); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Upload(fp, objs[fp]); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.DegradedUploads == 0 {
		t.Fatal("no degraded uploads recorded with a replica down")
	}
	// owned are the objects the victim is primary for; missed, those of
	// its replica sets' objects the outage kept from it.
	var owned []hashing.Fingerprint
	missed := 0
	for _, fp := range fps {
		replicas := c.Replicas(fp)
		if replicas[0] == victim {
			owned = append(owned, fp)
		}
		if slices.Contains(replicas, victim) && !holds(t, c, victim, fp) {
			missed++
		}
	}
	if missed == 0 || len(owned) == 0 {
		t.Fatalf("%s is primary for %d objects and missed %d; the test needs some of both", victim, len(owned), missed)
	}

	before := topo.Node(victim).WAN.Stats()
	if err := c.ReviveShard(victim); err != nil {
		t.Fatal(err)
	}
	backfill := topo.Node(victim).WAN.Stats().Sub(before)
	payloads, _, err := c.DownloadBatch(owned)
	if err != nil {
		t.Fatalf("DownloadBatch of the %d objects %s is primary for: %v", len(owned), victim, err)
	}
	for i, p := range payloads {
		if !bytes.Equal(p, objs[owned[i]]) {
			t.Fatalf("batch payload %d mismatch after revive", i)
		}
	}
	present, err := c.QueryBatch(owned)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range present {
		if !ok {
			t.Fatalf("QueryBatch reports %s absent after revive", owned[i])
		}
	}
	verifyPlacement(t, c, objs)

	// The backfill copied exactly what the outage missed, counted it,
	// and priced it through the revived shard's link.
	st = c.Stats()
	if int(st.RebalancedObjects) != missed || st.RebalancedBytes <= 0 {
		t.Fatalf("backfill counted %d objects / %d bytes, want the %d missed",
			st.RebalancedObjects, st.RebalancedBytes, missed)
	}
	if backfill.Bytes != st.RebalancedBytes {
		t.Fatalf("revived shard's link priced %d bytes, backfill moved %d", backfill.Bytes, st.RebalancedBytes)
	}
	// Reviving a live member moves nothing.
	if err := c.ReviveShard(victim); err != nil || c.Stats().RebalancedObjects != st.RebalancedObjects {
		t.Fatalf("second revive: err %v, %d objects moved", err, c.Stats().RebalancedObjects-st.RebalancedObjects)
	}
}

// verifyPlacement asserts physical placement equals ring placement for
// every object: present on all its replicas, absent elsewhere, and
// readable through the router.
func verifyPlacement(t *testing.T, c *Cluster, objs map[hashing.Fingerprint][]byte) {
	t.Helper()
	copies := 0
	for fp, data := range objs {
		want := map[string]bool{}
		for _, id := range c.Replicas(fp) {
			want[id] = true
		}
		for _, id := range c.Shards() {
			ok := holds(t, c, id, fp)
			if ok != want[id] {
				t.Fatalf("shard %s holds %s = %v, ring says %v", id, fp, ok, want[id])
			}
			if ok {
				copies++
			}
		}
		got, _, err := c.Download(fp)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Download(%s): %v", fp, err)
		}
	}
	if want := c.opts.Replication * len(objs); copies != want {
		t.Fatalf("%d replica copies across tier, want %d", copies, want)
	}
}

// Seed migrates a single-node pool into the tier under ring placement.
func TestSeedFromRegistry(t *testing.T) {
	src := gearregistry.New(gearregistry.Options{Compress: true})
	objs := corpus(t, 25)
	uploadAll(t, src, objs)

	c := newCluster(t, 4, 2, Options{Compress: true})
	n, err := c.Seed(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(objs) {
		t.Fatalf("seeded %d objects, want %d", n, len(objs))
	}
	verifyPlacement(t, c, objs)
}

// The tier's telemetry must reconcile: per-shard gauges equal each
// shard's pool stats, and the summed Stats equal the gauges.
func TestTelemetryReconciles(t *testing.T) {
	tele := telemetry.NewRegistry()
	c := newCluster(t, 3, 2, Options{Telemetry: tele})
	objs := corpus(t, 30)
	uploadAll(t, c, objs)

	snap := tele.Snapshot()
	st := c.Stats()
	var gaugeObjects, gaugeBytes int64
	for _, ss := range st.Shards {
		o, ok := snap.Gauges["shardreg.shard."+ss.ID+".objects"]
		if !ok || o != int64(ss.Objects) {
			t.Fatalf("gauge objects for %s = %d (ok %v), stats say %d", ss.ID, o, ok, ss.Objects)
		}
		b := snap.Gauges["shardreg.shard."+ss.ID+".bytes"]
		if b != ss.StoredBytes {
			t.Fatalf("gauge bytes for %s = %d, stats say %d", ss.ID, b, ss.StoredBytes)
		}
		gaugeObjects += o
		gaugeBytes += b
	}
	if gaugeObjects != int64(st.Objects) || gaugeBytes != st.StoredBytes {
		t.Fatalf("gauge totals %d/%d, stats totals %d/%d", gaugeObjects, gaugeBytes, st.Objects, st.StoredBytes)
	}
	if snap.Gauges["shardreg.shards"] != 3 || snap.Gauges["shardreg.replication"] != 2 {
		t.Fatalf("membership gauges wrong: %v", snap.Gauges)
	}
	if snap.Counters["shardreg.upload.requests"] != int64(len(objs)) {
		t.Fatalf("upload counter = %d, want %d", snap.Counters["shardreg.upload.requests"], len(objs))
	}
}

func TestShardAddressedUnknown(t *testing.T) {
	c := newCluster(t, 2, 1, Options{})
	if err := c.KillShard("ghost"); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("kill unknown err = %v", err)
	}
}
