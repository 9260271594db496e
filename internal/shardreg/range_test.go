package shardreg

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
)

// bigObject uploads one multi-KB object through the router and returns
// its fingerprint and bytes.
func bigObject(t *testing.T, c *Cluster) (hashing.Fingerprint, []byte) {
	t.Helper()
	data := make([]byte, 16384)
	for i := range data {
		data[i] = byte(i*131 + i>>8)
	}
	fp := hashing.FingerprintBytes(data)
	if err := c.Upload(fp, data); err != nil {
		t.Fatal(err)
	}
	return fp, data
}

// Ranges route by the same replica chain as whole reads and return the
// exact slice, for plain and compressed tiers alike.
func TestClusterDownloadRange(t *testing.T) {
	for _, compress := range []bool{false, true} {
		c := newCluster(t, 4, 2, Options{Compress: compress})
		fp, data := bigObject(t, c)
		for _, r := range []struct{ off, n int64 }{
			{0, 1}, {0, 16384}, {16383, 1}, {1000, 7777},
		} {
			got, wire, err := c.DownloadRange(fp, r.off, r.n)
			if err != nil {
				t.Fatalf("compress=%v range [%d,+%d): %v", compress, r.off, r.n, err)
			}
			if wire != r.n || !bytes.Equal(got, data[r.off:r.off+r.n]) {
				t.Fatalf("compress=%v range [%d,+%d): wrong slice (wire %d)", compress, r.off, r.n, wire)
			}
		}
		// Ranges are served by a replica of fp, counted in read telemetry.
		replicas := map[string]bool{}
		for _, id := range c.Replicas(fp) {
			replicas[id] = true
		}
		served := 0
		for _, ss := range c.Stats().Shards {
			if ss.Reads > 0 {
				if !replicas[ss.ID] {
					t.Fatalf("compress=%v: non-replica %s served reads", compress, ss.ID)
				}
				served++
			}
		}
		if served == 0 {
			t.Fatalf("compress=%v: no shard counted the ranges", compress)
		}
	}
}

// Bad ranges and misses surface the registry's own errors; an
// out-of-bounds range must not burn failovers — every replica stores
// the same bytes.
func TestClusterDownloadRangeErrors(t *testing.T) {
	c := newCluster(t, 3, 2, Options{})
	fp, _ := bigObject(t, c)
	for _, r := range []struct{ off, n int64 }{
		{-1, 5}, {0, 0}, {16384, 1}, {0, 16385},
	} {
		if _, _, err := c.DownloadRange(fp, r.off, r.n); !errors.Is(err, gearregistry.ErrBadRange) {
			t.Fatalf("range [%d,+%d) = %v, want ErrBadRange", r.off, r.n, err)
		}
	}
	if _, _, err := c.DownloadRange("zz", 0, 1); !errors.Is(err, hashing.ErrMalformed) {
		t.Fatalf("malformed fp: %v", err)
	}
	absent := hashing.FingerprintBytes([]byte("absent"))
	if _, _, err := c.DownloadRange(absent, 0, 1); !errors.Is(err, gearregistry.ErrNotFound) {
		t.Fatalf("absent: %v", err)
	}
	if f := c.Stats().Failovers; f != 0 {
		t.Fatalf("permanent range errors burned %d failovers", f)
	}
}

// Killing the primary fails ranges over to the next replica, exactly
// like whole-object downloads.
func TestClusterRangeFailover(t *testing.T) {
	c := newCluster(t, 4, 2, Options{})
	fp, data := bigObject(t, c)
	primary := c.Replicas(fp)[0]
	if err := c.KillShard(primary); err != nil {
		t.Fatal(err)
	}
	got, wire, err := c.DownloadRange(fp, 4000, 1000)
	if err != nil || wire != 1000 || !bytes.Equal(got, data[4000:5000]) {
		t.Fatalf("failover range = %v (wire %d)", err, wire)
	}
	if f := c.Stats().Failovers; f != 1 {
		t.Fatalf("failovers = %d, want 1", f)
	}
	for _, id := range c.Shards() {
		if err := c.KillShard(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.DownloadRange(fp, 0, 1); !errors.Is(err, ErrShardDown) {
		t.Fatalf("all dead: %v", err)
	}
}

// Under a topology, a range costs what a one-request quote of its wire
// bytes costs on the serving replica's WAN link, and it is never hedged:
// with the primary straggling at 10x — where a whole-object read of the
// same fingerprint does hedge — the range waits for the primary and no
// other shard moves a byte.
func TestClusterRangePricing(t *testing.T) {
	wan := netsim.DefaultLAN().WithBandwidth(200)
	lan := netsim.DefaultLAN()
	topo, err := netsim.NewTopology(wan, lan)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 3, 2, Options{Topology: topo, Read: ReadOptions{Hedge: true}})
	fp, data := bigObject(t, c)
	// A healthy read gives the hedge model its latency baseline.
	if _, _, _, err := c.DownloadTimed(fp); err != nil {
		t.Fatal(err)
	}
	primary := c.Replicas(fp)[0]
	if err := topo.SetServiceFactor(primary, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.DownloadTimed(fp); err != nil {
		t.Fatal(err)
	}
	fired := c.Stats().HedgesFired
	if fired == 0 {
		t.Fatal("a whole read of the straggling primary was not hedged")
	}
	base := make(map[string]netsim.Stats)
	for _, id := range c.Shards() {
		base[id] = topo.Node(id).WAN.Stats()
	}

	payload, wire, err := c.DownloadRange(fp, 2048, 4096)
	if err != nil || !bytes.Equal(payload, data[2048:2048+4096]) {
		t.Fatalf("range: %v", err)
	}
	if got := c.Stats().HedgesFired; got != fired {
		t.Fatalf("range fired %d hedges", got-fired)
	}
	// A reference link priced like the primary's (no jitter is armed).
	ref, err := netsim.NewTopology(wan, lan)
	if err != nil {
		t.Fatal(err)
	}
	ref.Node(primary)
	if err := ref.SetServiceFactor(primary, 10); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Node(primary).WAN.TransferQuote(1, wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Node(primary).WAN.Stats().Sub(base[primary]); got != (netsim.Stats{Bytes: wire, Requests: 1, Elapsed: want}) {
		t.Fatalf("primary link moved %+v, want one request of %d bytes in %v", got, wire, want)
	}
	for _, id := range c.Shards() {
		if st := topo.Node(id).WAN.Stats().Sub(base[id]); id != primary && st != (netsim.Stats{}) {
			t.Fatalf("non-serving shard %s moved traffic: %+v", id, st)
		}
	}
}
