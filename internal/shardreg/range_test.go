package shardreg

import (
	"bytes"
	"errors"
	"testing"
	"time"

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

// Under a topology, a range is priced as a range transfer on the
// serving replica's WAN link: same cost a reference TransferRange of
// the same wire volume quotes, and zero cost/stat motion on every
// other shard.
func TestClusterRangePricing(t *testing.T) {
	wan := netsim.DefaultLAN().WithBandwidth(200)
	wan.RangeOverhead = 3 * time.Millisecond
	lan := netsim.DefaultLAN()
	topo, err := netsim.NewTopology(wan, lan)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := netsim.NewTopology(wan, lan)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 3, 1, Options{Topology: topo})
	fp, data := bigObject(t, c)
	primary := c.Replicas(fp)[0]
	base := topo.Node(primary).WAN.Stats()
	// Mirror upload traffic into the reference link's jitter stream.
	refLink := ref.Node(primary).WAN
	if _, err := refLink.Transfer(int64(len(data))); err != nil {
		t.Fatal(err)
	}
	refBase := refLink.Stats()

	payload, wire, cost, err := c.DownloadRangeTimed(fp, 2048, 4096)
	if err != nil || !bytes.Equal(payload, data[2048:2048+4096]) {
		t.Fatalf("timed range: %v", err)
	}
	want, err := refLink.TransferRangeQuote(1, wire)
	if err == nil {
		err = refLink.RecordTransfer(1, wire, want)
	}
	if err != nil {
		t.Fatal(err)
	}
	if cost != want {
		t.Fatalf("range cost %v, want TransferRange cost %v", cost, want)
	}
	got := topo.Node(primary).WAN.Stats().Sub(base)
	wantSt := refLink.Stats().Sub(refBase)
	if got != wantSt {
		t.Fatalf("primary link stats %+v, want %+v", got, wantSt)
	}
	for _, id := range c.Shards() {
		if id == primary {
			continue
		}
		if st := topo.Node(id).WAN.Stats(); st.Requests != 0 {
			t.Fatalf("non-serving shard %s moved traffic: %+v", id, st)
		}
	}
}
