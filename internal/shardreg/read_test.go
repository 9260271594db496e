package shardreg

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
)

// sortedFps returns the corpus fingerprints in sorted order, so read
// sequences (and therefore jitter streams) are reproducible.
func sortedFps(objs map[hashing.Fingerprint][]byte) []hashing.Fingerprint {
	fps := make([]hashing.Fingerprint, 0, len(objs))
	for fp := range objs {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	return fps
}

// With the zero ReadOptions the read path must degenerate exactly to
// rank-order serving with one Transfer per download: same serving shard
// as the ring's primary, and per-node link stats bit-identical to a
// reference replay that prices each read with a plain Transfer on the
// primary's link.
func TestReadDegeneratesToRankOrder(t *testing.T) {
	wan := netsim.DefaultLAN().WithBandwidth(100)
	lan := netsim.DefaultLAN()
	topo, err := netsim.NewTopology(wan, lan)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := netsim.NewTopology(wan, lan)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 4, 2, Options{Topology: topo})
	objs := corpus(t, 50)
	uploadAll(t, c, objs)

	// Snapshot post-upload so only the read pass is compared.
	base := map[string]netsim.Stats{}
	for _, id := range c.Shards() {
		base[id] = topo.Node(id).WAN.Stats()
		// Mirror the upload-phase traffic into the reference.
		ref.Node(id)
	}

	for _, fp := range sortedFps(objs) {
		payload, wire, cost, err := c.DownloadTimed(fp)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) == 0 || wire <= 0 || cost <= 0 {
			t.Fatalf("DownloadTimed(%s) = %d bytes, wire %d, cost %v", fp, len(payload), wire, cost)
		}
		primary := c.Replicas(fp)[0]
		want, err := ref.Node(primary).WAN.Transfer(1, wire)
		if err != nil || cost != want {
			t.Fatalf("download %s cost %v, want rank-order Transfer cost %v", fp, cost, want)
		}
	}
	for _, id := range c.Shards() {
		got := topo.Node(id).WAN.Stats().Sub(base[id])
		want := ref.Node(id).WAN.Stats()
		if got != want {
			t.Fatalf("shard %s read-pass link stats %+v, want reference %+v", id, got, want)
		}
	}
	st := c.Stats()
	if st.BalancedReads != 0 || st.HedgesFired != 0 || st.HedgeWasteBytes != 0 {
		t.Fatalf("zero ReadOptions still balanced/hedged: %+v", st)
	}
	if st.Reads != int64(len(objs)) {
		t.Fatalf("tier reads = %d, want %d", st.Reads, len(objs))
	}
}

// straggle slows the shard owning the most primaries by factor and
// returns its id.
func straggle(t *testing.T, c *Cluster, topo *netsim.Topology, factor float64) string {
	t.Helper()
	slow := c.BusiestShard()
	if err := topo.SetServiceFactor(slow, factor); err != nil {
		t.Fatal(err)
	}
	return slow
}

// Power-of-two-choices must steer reads away from a 10x straggler once
// its EWMA warms, at exact client byte parity with the rank-order path.
func TestBalancedReadsAvoidStraggler(t *testing.T) {
	run := func(balance bool) (clientBytes int64, st Stats, slow string) {
		topo, err := netsim.NewTopology(netsim.DefaultLAN().WithBandwidth(100), netsim.DefaultLAN())
		if err != nil {
			t.Fatal(err)
		}
		c := newCluster(t, 4, 2, Options{Topology: topo, Read: ReadOptions{Balance: balance}})
		objs := corpus(t, 60)
		uploadAll(t, c, objs)
		slow = straggle(t, c, topo, 10)
		fps := sortedFps(objs)
		for round := 0; round < 8; round++ {
			for _, fp := range fps {
				_, wire, _, err := c.DownloadTimed(fp)
				if err != nil {
					t.Fatal(err)
				}
				clientBytes += wire
			}
		}
		return clientBytes, c.Stats(), slow
	}
	rankBytes, rankStats, slow := run(false)
	balBytes, balStats, _ := run(true)
	if balBytes != rankBytes {
		t.Fatalf("balanced client bytes %d != rank-order %d (parity broken)", balBytes, rankBytes)
	}
	if balStats.BalancedReads == 0 {
		t.Fatal("balancer never diverged from rank order despite a 10x straggler")
	}
	share := func(st Stats) float64 {
		for _, s := range st.Shards {
			if s.ID == slow {
				return s.ReadShare
			}
		}
		t.Fatalf("straggler %s missing from stats", slow)
		return 0
	}
	rankShare, balShare := share(rankStats), share(balStats)
	if balShare >= rankShare/2 {
		t.Fatalf("straggler read share %0.3f under balancing, want well below rank-order %0.3f", balShare, rankShare)
	}
}

// Hedging must fire against a straggler, win there, bound its extra
// egress under 5%% of client bytes, and keep every observed latency well
// under the straggler's un-hedged service time. Balancing is left off:
// with it on, p2c steers reads away from the straggler after its first
// slow response and the hedge (correctly) has nothing left to rescue —
// hedging is the insurance for reads that still land on a slow replica.
func TestHedgedReadsBoundTailAndWaste(t *testing.T) {
	topo, err := netsim.NewTopology(netsim.DefaultLAN().WithBandwidth(100), netsim.DefaultLAN())
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 4, 2, Options{Topology: topo, Read: ReadOptions{Hedge: true}})
	objs := corpus(t, 60)
	uploadAll(t, c, objs)
	slow := straggle(t, c, topo, 10)
	fps := sortedFps(objs)

	var clientBytes int64
	var worst time.Duration
	for round := 0; round < 8; round++ {
		for _, fp := range fps {
			_, wire, cost, err := c.DownloadTimed(fp)
			if err != nil {
				t.Fatal(err)
			}
			clientBytes += wire
			if cost > worst {
				worst = cost
			}
		}
	}
	st := c.Stats()
	if st.HedgesFired == 0 || st.HedgesWon == 0 {
		t.Fatalf("straggler %s never triggered a winning hedge: %+v", slow, st)
	}
	if st.HedgeWasteBytes*20 >= clientBytes {
		t.Fatalf("hedge waste %d bytes >= 5%% of %d client bytes", st.HedgeWasteBytes, clientBytes)
	}
	// The straggler serves at ~10x a healthy shard; hedged tail latency
	// must stay well under that.
	healthy, err := topo.Node("zz-probe").WAN.TransferQuote(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if worst >= 8*healthy {
		t.Fatalf("worst hedged latency %v, want < 8x healthy cost %v", worst, healthy)
	}
}

// Batch downloads hedge per shard partition: under a straggler the
// batch path must fire hedges too, with the same waste bound, and
// payloads/wire must stay identical to the un-hedged batch.
func TestHedgedBatchDownloads(t *testing.T) {
	mk := func(hedge bool) (*Cluster, map[hashing.Fingerprint][]byte) {
		topo, err := netsim.NewTopology(netsim.DefaultLAN().WithBandwidth(100), netsim.DefaultLAN())
		if err != nil {
			t.Fatal(err)
		}
		c := newCluster(t, 4, 2, Options{Topology: topo,
			Read: ReadOptions{Balance: hedge, Hedge: hedge}})
		objs := corpus(t, 40)
		uploadAll(t, c, objs)
		straggle(t, c, topo, 10)
		return c, objs
	}
	plain, objs := mk(false)
	hedged, _ := mk(true)
	fps := sortedFps(objs)
	var wantWire, gotWire int64
	for round := 0; round < 4; round++ {
		wantPs, w1, err := plain.DownloadBatch(fps)
		if err != nil {
			t.Fatal(err)
		}
		gotPs, w2, err := hedged.DownloadBatch(fps)
		if err != nil {
			t.Fatal(err)
		}
		wantWire += w1
		gotWire += w2
		for i := range wantPs {
			if string(wantPs[i]) != string(gotPs[i]) {
				t.Fatalf("round %d: payload %d differs under hedging", round, i)
			}
		}
	}
	if gotWire != wantWire {
		t.Fatalf("hedged batch wire %d != plain %d (parity broken)", gotWire, wantWire)
	}
	st := hedged.Stats()
	if st.HedgesFired == 0 {
		t.Fatal("batch path never hedged despite a 10x straggler")
	}
	if st.HedgeWasteBytes*20 >= gotWire {
		t.Fatalf("batch hedge waste %d bytes >= 5%% of %d client bytes", st.HedgeWasteBytes, gotWire)
	}
}

// Routed reads must be safe to run concurrently with a shard dying and
// being revived while uploads go on; run with -race. One shard is down
// or filling at a time, so every replica set keeps a live member, but a
// read that meets one replica down and then its other replica killed
// may fail with ErrShardDown; that is the only failure allowed. Every
// object whose upload has returned reads back as uploaded, whichever
// verb reads it, and a batch never finds it missing: a revive that
// served before its backfill, or lost an upload that raced it, fails
// here.
func TestReadsConcurrentWithKillAndRevive(t *testing.T) {
	c := newCluster(t, 4, 2, Options{Read: ReadOptions{Balance: true, Hedge: true}})
	objs := corpus(t, 60)
	all := sortedFps(objs)
	uploadAll(t, c, map[hashing.Fingerprint][]byte{all[0]: objs[all[0]], all[1]: objs[all[1]], all[2]: objs[all[2]]})
	var uploaded atomic.Int64 // all[:uploaded] have been uploaded
	uploaded.Store(3)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	check := func(what string, fp hashing.Fingerprint, got, want []byte, err error) bool {
		if err != nil && !errors.Is(err, ErrShardDown) || err == nil && !bytes.Equal(got, want) {
			t.Errorf("%s(%s) = %d bytes, %v", what, fp, len(got), err)
			return false
		}
		return true
	}
	read := func(g int) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fps := all[:uploaded.Load()]
			fp := fps[(g+i)%len(fps)]
			want := objs[fp]
			payload, _, err := c.Download(fp)
			if !check("Download", fp, payload, want, err) {
				return
			}
			part, _, err := c.DownloadRange(fp, 1, 5)
			if !check("DownloadRange", fp, part, want[1:6], err) {
				return
			}
			batch := fps[max(0, len(fps)-4):]
			payloads, _, err := c.DownloadBatch(batch)
			for k := range payloads {
				if !check("DownloadBatch", batch[k], payloads[k], objs[batch[k]], nil) {
					return
				}
			}
			if !check("DownloadBatch", batch[0], nil, nil, err) {
				return
			}
			present, err := c.QueryBatch(batch)
			if err == nil && slices.Contains(present, false) {
				t.Errorf("QueryBatch = %v", present)
				return
			}
			if !check("QueryBatch", batch[0], nil, nil, err) {
				return
			}
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go read(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, fp := range all[3:] {
			if err := c.Upload(fp, objs[fp]); err != nil {
				t.Errorf("Upload(%s): %v", fp, err)
				return
			}
			uploaded.Add(1)
		}
	}()
	// At least 20 outages, and on until the last upload has returned.
	// Each outage lasts until two more uploads have returned, so uploads
	// land while the shard is down and while it is filled.
	for i := 0; (i < 20 || uploaded.Load() < int64(len(all))) && !t.Failed(); i++ {
		id := c.Shards()[i%4]
		if err := c.KillShard(id); err != nil {
			t.Error(err)
		}
		for until := min(uploaded.Load()+2, int64(len(all))); uploaded.Load() < until && !t.Failed(); {
			runtime.Gosched()
		}
		if err := c.ReviveShard(id); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	verifyPlacement(t, c, objs)
}

// The failovers counter must tick for every dead replica skipped by
// Query and Download — and must NOT tick when a live replica merely
// reports not-found.
func TestFailoverCounterTelemetry(t *testing.T) {
	c := newCluster(t, 3, 2, Options{})
	objs := corpus(t, 20)
	uploadAll(t, c, objs)
	fp := sortedFps(objs)[0]
	primary := c.Replicas(fp)[0]
	failovers := c.Telemetry().Counter("shardreg.failovers")

	before := failovers.Value()
	if err := c.KillShard(primary); err != nil {
		t.Fatal(err)
	}
	if present, err := c.Query(fp); err != nil || !present {
		t.Fatalf("Query past dead primary = %v, %v", present, err)
	}
	if got := failovers.Value(); got != before+1 {
		t.Fatalf("failovers after query = %d, want %d", got, before+1)
	}
	if _, _, err := c.Download(fp); err != nil {
		t.Fatal(err)
	}
	if got := failovers.Value(); got != before+2 {
		t.Fatalf("failovers after download = %d, want %d", got, before+2)
	}

	// Both replicas down: the typed error surfaces and each dead replica
	// is counted.
	backup := c.Replicas(fp)[1]
	if err := c.KillShard(backup); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Download(fp); !errors.Is(err, ErrShardDown) {
		t.Fatalf("all-replicas-down err = %v", err)
	}
	if got := failovers.Value(); got != before+4 {
		t.Fatalf("failovers after dead pair = %d, want %d", got, before+4)
	}

	// A clean miss fails over nothing.
	if err := c.ReviveShard(primary); err != nil {
		t.Fatal(err)
	}
	if err := c.ReviveShard(backup); err != nil {
		t.Fatal(err)
	}
	at := failovers.Value()
	missing := hashing.FingerprintBytes([]byte("never uploaded"))
	if _, _, err := c.Download(missing); !errors.Is(err, gearregistry.ErrNotFound) {
		t.Fatalf("miss err = %v", err)
	}
	if got := failovers.Value(); got != at {
		t.Fatalf("not-found ticked failovers: %d -> %d", at, got)
	}
}

// Per-shard read counters and shares must reconcile: shares sum to 1
// and every served read is attributed to exactly one shard.
func TestReadShareAccounting(t *testing.T) {
	c := newCluster(t, 4, 2, Options{Read: ReadOptions{Balance: true}})
	objs := corpus(t, 40)
	uploadAll(t, c, objs)
	for _, fp := range sortedFps(objs) {
		if _, _, err := c.Download(fp); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Reads != int64(len(objs)) {
		t.Fatalf("tier reads = %d, want %d", st.Reads, len(objs))
	}
	var share float64
	var reads int64
	for _, s := range st.Shards {
		share += s.ReadShare
		reads += s.Reads
	}
	if reads != st.Reads {
		t.Fatalf("per-shard reads sum %d != tier reads %d", reads, st.Reads)
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("read shares sum to %0.4f, want 1", share)
	}
}
