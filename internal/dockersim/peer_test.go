package dockersim

import (
	"fmt"
	"testing"

	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/peer"
)

// peerRig attaches a fleet of daemons to one topology with a tracker
// and peer exchange wired through each daemon's Gear store.
func peerRig(t testing.TB, r *rig, nodes int, wanMbps, lanMbps float64) ([]*Daemon, *peer.Tracker, *netsim.Topology) {
	t.Helper()
	topo, err := netsim.NewTopology(
		netsim.DefaultLAN().WithBandwidth(wanMbps/1000),
		netsim.DefaultLAN().WithBandwidth(lanMbps/1000))
	if err != nil {
		t.Fatal(err)
	}
	tracker := peer.NewTracker()
	network := peer.NewStaticNetwork()
	daemons := make([]*Daemon, nodes)
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("node%d", i)
		d, err := NewDaemon(r.docker, r.gear, Options{
			Links: topo.Node(id),
			Peers: peer.NewExchange(id, tracker, network, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		d.GearStore().Cache().SetHooks(tracker.Hooks(id))
		// Peers serve compressed, like the registry, so wire bytes match
		// whichever source serves.
		network.Add(id, peer.NewServer(id, d.GearStore().Cache()))
		daemons[i] = d
	}
	return daemons, tracker, topo
}

// TestPeerDeploySavesRegistryEgress deploys the same image across a
// small fleet: the first node fetches everything from the registry and
// seeds the cluster; later nodes get their Gear files from it over the
// LAN, at identical received bytes.
func TestPeerDeploySavesRegistryEgress(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	access := r.access(t, 0)
	ref := "gear/" + r.series

	// Baseline: same topology shape, no peers.
	solo, err := NewDaemon(r.docker, r.gear, Options{
		Link: netsim.DefaultLAN().WithBandwidth(20.0 / 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	soloDep, err := solo.DeployGear(ref, "v01", access, 0)
	if err != nil {
		t.Fatal(err)
	}
	soloBytes := soloDep.Pull.Bytes + soloDep.Run.Bytes

	const nodes = 4
	daemons, tracker, topo := peerRig(t, r, nodes, 20, 1000)
	var received []int64
	for i, d := range daemons {
		dep, err := d.DeployGear(ref, "v01", access, 0)
		if err != nil {
			t.Fatal(err)
		}
		wan := dep.Pull.Bytes + dep.Run.Bytes
		lan := d.PeerLink().Stats().Bytes
		received = append(received, wan+lan)
		if i == 0 {
			if lan != 0 {
				t.Errorf("seed node used %d LAN bytes, want 0", lan)
			}
			if wan != soloBytes {
				t.Errorf("seed node WAN bytes = %d, solo baseline = %d; must match", wan, soloBytes)
			}
		} else if d.Snapshot().Counter("store.peer.objects") == 0 {
			t.Errorf("node %d fetched no files from peers", i)
		}
	}

	// Every node received the same volume, wherever it came from. The
	// LAN share includes per-object request overhead on both paths, so
	// the comparison is exact.
	for i, got := range received {
		if got != received[0] {
			t.Errorf("node %d received %d bytes, node 0 received %d", i, got, received[0])
		}
	}

	// Fleet-level registry egress collapsed: followers only pull the
	// index image over the WAN.
	wan := topo.WANStats()
	if baseline := soloBytes * nodes; wan.Bytes*2 >= baseline {
		t.Errorf("fleet WAN egress = %d, no-peer baseline = %d; want < 50%%", wan.Bytes, baseline)
	}
	if topo.LANStats().Bytes == 0 {
		t.Error("no peer traffic crossed the LAN")
	}
	if holders := tracker.Snapshot().Gauge("tracker.holders"); holders != nodes {
		t.Errorf("tracker sees %d holders, want %d", holders, nodes)
	}

	// Deploy time accounts the LAN transfers: a follower's run phase is
	// nonzero even though it barely touched the WAN.
	if len(daemons) > 1 {
		if lan := daemons[1].PeerLink().Stats(); lan.Elapsed == 0 {
			t.Error("peer transfers cost no virtual time")
		}
	}
}

// TestTopologyDaemonDegeneratesWithoutPeers pins the single-node
// degeneration: a daemon attached to a topology but with no peer
// source behaves byte-identically to a plain-link daemon.
func TestTopologyDaemonDegeneratesWithoutPeers(t *testing.T) {
	r := buildRig(t, "redis", 1)
	access := r.access(t, 0)
	ref := "gear/" + r.series

	plain, err := NewDaemon(r.docker, r.gear, Options{
		Link: netsim.DefaultLAN().WithBandwidth(20.0 / 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := netsim.NewTopology(
		netsim.DefaultLAN().WithBandwidth(20.0/1000),
		netsim.DefaultLAN().WithBandwidth(1000.0/1000))
	if err != nil {
		t.Fatal(err)
	}
	attached, err := NewDaemon(r.docker, r.gear, Options{Links: topo.Node("only")})
	if err != nil {
		t.Fatal(err)
	}

	a, err := plain.DeployGear(ref, "v01", access, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := attached.DeployGear(ref, "v01", access, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pull.Bytes != b.Pull.Bytes || a.Run.Bytes != b.Run.Bytes {
		t.Errorf("attached daemon moved %d/%d bytes, plain %d/%d",
			b.Pull.Bytes, b.Run.Bytes, a.Pull.Bytes, a.Run.Bytes)
	}
	if a.Total() != b.Total() {
		t.Errorf("attached deploy took %v, plain %v", b.Total(), a.Total())
	}
	if lan := topo.LANStats(); lan.Bytes != 0 || lan.Requests != 0 {
		t.Errorf("peer-less daemon produced LAN traffic: %+v", lan)
	}
}

// TestWindowsPriceAtTheLinksCurrentConfig: a daemon prices its fetch
// windows from its link's configuration at the time of the window, not
// from a copy taken when it was built. A daemon whose topology WAN was
// slowed after NewDaemon must deploy in exactly the time of a daemon
// built on the slow link from the start.
func TestWindowsPriceAtTheLinksCurrentConfig(t *testing.T) {
	r := buildRig(t, "mysql", 1)
	access := r.access(t, 0)
	ref := "gear/" + r.series
	wan := netsim.DefaultLAN().WithBandwidth(904.0 / 1000)

	topo, err := netsim.NewTopology(wan, netsim.DefaultLAN())
	if err != nil {
		t.Fatal(err)
	}
	repriced, err := NewDaemon(r.docker, r.gear, Options{Links: topo.Node("a"), FetchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	slow := wan
	slow.RTT *= 20
	if err := topo.SetWANConfig(slow); err != nil {
		t.Fatal(err)
	}
	built, err := NewDaemon(r.docker, r.gear, Options{Link: slow, FetchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}

	a, err := repriced.DeployGear(ref, "v01", access, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := built.DeployGear(ref, "v01", access, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != b.Total() {
		t.Errorf("daemon slowed after NewDaemon deployed in %v, one built slow in %v", a.Total(), b.Total())
	}
}
