package fleet

import (
	"sync"
	"testing"
)

// TestSnapshotHammer runs a 256-node flash crowd while hammering the
// fleet-wide Snapshot from concurrent readers (the -race contract:
// observability must never require pausing the fleet), then reconciles
// the final snapshot against the topology's link counters and the
// run's result.
func TestSnapshotHammer(t *testing.T) {
	h, err := New(testWorkload(t), Options{Nodes: 256, Seed: 99, Peers: true})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastWAN, lastDeploys int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				if err := snap.Validate(); err != nil {
					t.Error(err)
					return
				}
				if wan := snap.Gauge("fleet.wan.bytes"); wan < lastWAN {
					t.Errorf("fleet.wan.bytes went backwards: %d -> %d", lastWAN, wan)
					return
				} else {
					lastWAN = wan
				}
				if dep := snap.Counter("fleet.deploys"); dep < lastDeploys {
					t.Errorf("fleet.deploys went backwards: %d -> %d", lastDeploys, dep)
					return
				} else {
					lastDeploys = dep
				}
			}
		}()
	}

	res, err := h.Run(FlashCrowd)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TotalDeploys != 256 {
		t.Errorf("TotalDeploys = %d, want 256", res.TotalDeploys)
	}

	// Reconciliation pass: the quiesced snapshot, the topology
	// aggregates, and the per-node links must tell one story.
	snap := h.Snapshot()
	topo := h.Topology()
	if got, want := snap.Gauge("fleet.wan.bytes"), topo.WANStats().Bytes; got != want {
		t.Errorf("fleet.wan.bytes gauge = %d, topology says %d", got, want)
	}
	if got, want := snap.Gauge("fleet.lan.bytes"), topo.LANStats().Bytes; got != want {
		t.Errorf("fleet.lan.bytes gauge = %d, topology says %d", got, want)
	}

	var wanSum, lanSum int64
	active := h.Active()
	if len(active) != 256 {
		t.Fatalf("active nodes = %d, want 256", len(active))
	}
	for _, id := range active {
		d, ok := h.daemon(id)
		if !ok {
			t.Fatalf("daemon %q missing", id)
		}
		wanSum += d.Link().Stats().Bytes
		lanSum += d.PeerLink().Stats().Bytes
	}
	if wanSum != topo.WANStats().Bytes {
		t.Errorf("sum of per-node WAN link bytes %d != topology aggregate %d",
			wanSum, topo.WANStats().Bytes)
	}
	if lanSum != topo.LANStats().Bytes {
		t.Errorf("sum of per-node LAN link bytes %d != topology aggregate %d",
			lanSum, topo.LANStats().Bytes)
	}

	if got := snap.Counter("store.peer.objects"); res.PeerObjects != got {
		t.Errorf("result peer objects %d != snapshot store.peer.objects %d", res.PeerObjects, got)
	}
	if res.PeerObjects == 0 {
		t.Error("flash crowd served no objects peer-to-peer")
	}
}
