package netsim

import (
	"sync"
	"testing"
)

func TestTopologyRejectsBadConfigs(t *testing.T) {
	good := DefaultLAN()
	if _, err := NewTopology(LinkConfig{}, good); err == nil {
		t.Error("bad WAN config accepted")
	}
	if _, err := NewTopology(good, LinkConfig{}); err == nil {
		t.Error("bad LAN config accepted")
	}
}

func TestTopologyNodeIdentityAndStats(t *testing.T) {
	topo, err := NewTopology(DefaultLAN().WithBandwidth(20), DefaultLAN().WithBandwidth(1000))
	if err != nil {
		t.Fatal(err)
	}
	a := topo.Node("a")
	if topo.Node("a") != a {
		t.Error("repeated Node(id) returned a different attachment")
	}
	b := topo.Node("b")

	a.WAN.Transfer(1, 1000)
	b.WAN.Transfer(1, 500)
	a.LAN.Transfer(1, 2000)

	wan, lan := topo.WANStats(), topo.LANStats()
	if wan.Bytes != 1500 || wan.Requests != 2 {
		t.Errorf("WAN stats = %+v, want 1500 bytes / 2 requests", wan)
	}
	if lan.Bytes != 2000 || lan.Requests != 1 {
		t.Errorf("LAN stats = %+v, want 2000 bytes / 1 request", lan)
	}
	// The asymmetry is real: the same volume is far cheaper over the LAN.
	if priced(a.LAN.TransferQuote(1, 1_000_000)) >= priced(a.WAN.TransferQuote(1, 1_000_000)) {
		t.Error("LAN transfer not cheaper than WAN")
	}
}

func TestTopologyConcurrentAttach(t *testing.T) {
	topo, err := NewTopology(DefaultLAN(), DefaultLAN())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range []string{"n1", "n2", "n3"} {
				topo.Node(id).WAN.Transfer(1, 10)
			}
		}()
	}
	wg.Wait()
	if got := topo.WANStats().Requests; got != 24 {
		t.Errorf("requests = %d, want 24", got)
	}
	// Racing first uses attached each node once: all of its traffic is
	// on the one link.
	for _, id := range []string{"n1", "n2", "n3"} {
		if got := topo.Node(id).WAN.Stats().Requests; got != 8 {
			t.Errorf("node %s requests = %d, want 8", id, got)
		}
	}
}
