package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/fleet"
)

// ExtP2PPoint is one (fleet size, WAN bandwidth) sample of the
// peer-to-peer distribution sweep. Each point runs the same rolling
// deployment twice — peers disabled (the extload configuration) and
// peers enabled — over identical corpora and registries.
type ExtP2PPoint struct {
	// Nodes is the fleet size.
	Nodes int `json:"nodes"`
	// WANMbps is the paper-quoted registry uplink per node; the cluster
	// LAN stays at 1000 Mbps.
	WANMbps float64 `json:"wanMbps"`
	// BaselineEgress is total registry egress with peers disabled.
	BaselineEgress int64 `json:"baselineEgress"`
	// P2PEgress is total registry egress with the peer exchange on.
	P2PEgress int64 `json:"p2pEgress"`
	// LANBytes is the volume Gear files moved between peers instead.
	LANBytes int64 `json:"lanBytes"`
	// PeerObjects counts Gear files served peer-to-peer.
	PeerObjects int64 `json:"peerObjects"`
	// BaselineMeanTime/P2PMeanTime are mean per-deployment times.
	BaselineMeanTime time.Duration `json:"baselineMeanTime"`
	P2PMeanTime      time.Duration `json:"p2pMeanTime"`
	// ParityOK reports that every node received exactly the same bytes
	// in both passes (WAN in the baseline, WAN+LAN with peers): the
	// exchange moves traffic off the registry, it does not change what a
	// node downloads.
	ParityOK bool `json:"parityOK"`
}

// EgressSaving returns the registry-egress reduction peers bought.
func (p *ExtP2PPoint) EgressSaving() float64 {
	if p.BaselineEgress == 0 {
		return 0
	}
	return 1 - float64(p.P2PEgress)/float64(p.BaselineEgress)
}

// ExtP2PResult is the fleet-scale peer-to-peer distribution experiment:
// the extload rollout rerun with a cluster tracker and peer exchange,
// sweeping fleet size and WAN bandwidth. The first node to deploy seeds
// the cluster from the registry; every later node finds each Gear file
// on a peer and pulls it over the LAN instead.
type ExtP2PResult struct {
	// Series is the deployed image series.
	Series string `json:"series"`
	// Versions is the rolling-deployment depth per node.
	Versions int           `json:"versions"`
	LANMbps  float64       `json:"lanMbps"`
	Points   []ExtP2PPoint `json:"points"`
}

// extP2PSweep is the swept (fleet size, WAN Mbps) axis: fleet growth at
// the paper's 20 Mbps edge uplink, plus a 100 Mbps contrast point.
var extP2PSweep = []struct {
	nodes int
	wan   float64
}{
	{1, 20},
	{2, 20},
	{4, 20},
	{8, 20},
	{8, 100},
}

// RunExtP2P deploys one series' versions across fleets of daemons, with
// and without the peer exchange, and measures where the bytes came
// from. Fleet size 1 pins the degeneration: a lone node finds no peers,
// moves nothing over the LAN, and costs the registry exactly the
// baseline egress.
func RunExtP2P(cfg Config) (*ExtP2PResult, error) {
	if cfg.VersionsPerSeries <= 0 || cfg.VersionsPerSeries > 4 {
		cfg.VersionsPerSeries = 4
	}
	co, err := cfg.newCorpus([]string{"nginx"})
	if err != nil {
		return nil, err
	}
	wl, err := fleet.Publish(co, co.Series(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	s := &wl.Series[0]

	res := &ExtP2PResult{Series: s.Name, Versions: len(s.Tags), LANMbps: fleet.LANMbps}
	for _, pt := range extP2PSweep {
		// Pass 1 — peers disabled: the extload configuration at this
		// fleet size and bandwidth. Pass 2 — peers enabled, every node's
		// cache exported to the cluster.
		base, err := cfg.fleet(wl, pt.nodes, pt.wan, fleet.Options{})
		if err != nil {
			return nil, err
		}
		bp, err := rollout(base, pt.nodes)
		if err != nil {
			return nil, err
		}
		p2p, err := cfg.fleet(wl, pt.nodes, pt.wan, fleet.Options{Peers: true})
		if err != nil {
			return nil, err
		}
		pp, err := rollout(p2p, pt.nodes)
		if err != nil {
			return nil, err
		}
		point := ExtP2PPoint{
			Nodes:            pt.nodes,
			WANMbps:          pt.wan,
			BaselineEgress:   bp.WAN.Bytes,
			P2PEgress:        pp.WAN.Bytes,
			LANBytes:         pp.LAN.Bytes,
			PeerObjects:      pp.Telemetry.Counter("store.peer.objects"),
			BaselineMeanTime: bp.MeanDeploy,
			P2PMeanTime:      pp.MeanDeploy,
			ParityOK:         true,
		}
		for n := 0; n < pt.nodes; n++ {
			got := p2p.Topology().Node(fleet.NodeID(n))
			if got.WAN.Stats().Bytes+got.LAN.Stats().Bytes != base.Topology().Node(fleet.NodeID(n)).WAN.Stats().Bytes {
				point.ParityOK = false
			}
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// Print renders the fleet/bandwidth sweep.
func (r *ExtP2PResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s rolling deployment (%d versions/node), %g Mbps cluster LAN\n",
		r.Series, r.Versions, r.LANMbps)
	fmt.Fprintf(w, "%-6s %5s %14s %14s %12s %11s %11s %7s\n",
		"nodes", "wan", "registry egress", "with peers", "lan bytes",
		"base deploy", "p2p deploy", "parity")
	for i := range r.Points {
		p := &r.Points[i]
		fmt.Fprintf(w, "%-6d %5g %14s %14s %12s %11s %11s %7v\n",
			p.Nodes, p.WANMbps, mb(p.BaselineEgress), mb(p.P2PEgress), mb(p.LANBytes),
			p.BaselineMeanTime.Round(time.Millisecond),
			p.P2PMeanTime.Round(time.Millisecond), p.ParityOK)
	}
	for i := range r.Points {
		p := &r.Points[i]
		if p.Nodes > 1 {
			fmt.Fprintf(w, "%d nodes @ %g Mbps: peers cut registry egress by %.1f%% (%d files served peer-to-peer)\n",
				p.Nodes, p.WANMbps, p.EgressSaving()*100, p.PeerObjects)
		} else if p.LANBytes == 0 && p.P2PEgress == p.BaselineEgress {
			fmt.Fprintf(w, "%d node @ %g Mbps: degenerates exactly — zero peer traffic, baseline egress\n",
				p.Nodes, p.WANMbps)
		}
	}
}
