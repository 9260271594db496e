package netsim

import (
	"errors"
	"fmt"
	"sync"
)

// ErrUnknownNode reports a topology operation on a node id that is not
// currently attached.
var ErrUnknownNode = errors.New("unknown node")

// Topology models the cluster/WAN asymmetry that makes peer-to-peer
// image distribution pay (the EdgePier setting): a fleet of nodes in
// one cluster, where every node owns a cheap, fat LAN link to its
// cluster peers and a separate, narrow WAN link toward the registry.
// Registry egress is the sum of WAN traffic; peer exchange rides the
// LAN links and never touches the WAN.
//
// Links stay per-node (each node has its own NIC); the asymmetry is in
// the two LinkConfigs. Aggregated stats answer the fleet questions:
// WANStats is what the registry served, LANStats is what the cluster
// absorbed internally.
//
// Nodes can churn: Detach closes a node's links (in-flight transfer
// attempts fail with ErrLinkClosed), and a later Node call re-attaches
// it with fresh links. Traffic carried before a detach stays in the
// aggregate stats, so fleet egress is monotonic across churn.
type Topology struct {
	mu             sync.Mutex
	wanCfg, lanCfg LinkConfig
	nodes          map[string]*NodeLinks
	// retired holds the link pairs of detached nodes so their traffic
	// keeps counting toward the aggregates.
	retired []*NodeLinks
	// jitterSeed/jitterAmp, when amp > 0, arm deterministic per-node
	// service jitter: every attachment derives its own stream seed from
	// (jitterSeed, node id), so the same topology seed replays the same
	// per-node slow-request schedule regardless of attachment order.
	jitterSeed uint64
	jitterAmp  float64
}

// NodeLinks is one node's attachment to the topology.
type NodeLinks struct {
	// WAN carries registry traffic (index pulls, Gear file downloads
	// that no peer could serve).
	WAN *Link
	// LAN carries peer-to-peer Gear file transfers within the cluster.
	LAN *Link
}

// NewTopology returns an empty topology with the given WAN and LAN
// link configurations.
func NewTopology(wan, lan LinkConfig) (*Topology, error) {
	if err := wan.Validate(); err != nil {
		return nil, err
	}
	if err := lan.Validate(); err != nil {
		return nil, err
	}
	return &Topology{
		wanCfg: wan,
		lanCfg: lan,
		nodes:  make(map[string]*NodeLinks),
	}, nil
}

// Node returns the links of the named node, attaching it on first use.
// A node that was detached is re-attached with fresh links (a rejoin
// after churn); its earlier traffic remains in the aggregate stats.
func (t *Topology) Node(id string) *NodeLinks {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.nodes[id]; ok {
		return n
	}
	// Configs were validated in NewTopology; NewLink cannot fail.
	wan, _ := NewLink(t.wanCfg)
	lan, _ := NewLink(t.lanCfg)
	if t.jitterAmp > 0 {
		// Amp was validated in SetServiceJitter; SetServiceJitter on a
		// fresh link cannot fail.
		_ = wan.SetServiceJitter(nodeSeed(t.jitterSeed, id, 0), t.jitterAmp)
		_ = lan.SetServiceJitter(nodeSeed(t.jitterSeed, id, 1), t.jitterAmp)
	}
	n := &NodeLinks{WAN: wan, LAN: lan}
	t.nodes[id] = n
	return n
}

// SetServiceFactor scales the named node's server-side cost on both its
// links — the straggler knob (10 = one node serving at a tenth speed; 1
// restores nominal service). The node must be attached; the factor does
// not survive a detach/re-attach cycle (a rejoined node gets fresh
// links at nominal speed).
func (t *Topology) SetServiceFactor(id string, f float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[id]
	if !ok {
		return fmt.Errorf("netsim: service factor %q: %w", id, ErrUnknownNode)
	}
	if err := n.WAN.SetServiceFactor(f); err != nil {
		return err
	}
	return n.LAN.SetServiceFactor(f)
}

// SetServiceJitter arms deterministic per-request service jitter on
// every attached node and every future attachment: each transfer's
// server-side cost scales by 1+amp*u with u drawn from a per-node
// xorshift stream derived from (seed, node id). Same seed, same slow
// requests — the reproducible-straggler contract experiments replay.
// amp 0 disarms jitter for future attachments (existing links keep
// their streams).
func (t *Topology) SetServiceJitter(seed uint64, amp float64) error {
	if amp < 0 {
		return fmt.Errorf("netsim: jitter amplitude %f: %w", amp, ErrBadLink)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jitterSeed, t.jitterAmp = seed, amp
	if amp == 0 {
		return nil
	}
	for id, n := range t.nodes {
		// Attached links are never closed and amp was validated, so
		// SetServiceJitter cannot fail.
		_ = n.WAN.SetServiceJitter(nodeSeed(seed, id, 0), amp)
		_ = n.LAN.SetServiceJitter(nodeSeed(seed, id, 1), amp)
	}
	return nil
}

// nodeSeed derives a per-(node, link-class) jitter seed: FNV-1a over
// the id mixed with the topology seed and finalized so nearby ids land
// on far-apart streams.
func nodeSeed(seed uint64, id string, class uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	h ^= seed + class*0x9e3779b97f4a7c15
	// murmur3 finalizer: avalanche every bit so streams decorrelate.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	return h
}

// Detach removes the named node: both its links close, so any transfer
// still pointed at them fails with ErrLinkClosed instead of silently
// pricing traffic for a node that left. Detaching a node that is not
// attached reports ErrUnknownNode.
func (t *Topology) Detach(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.nodes[id]
	if !ok {
		return fmt.Errorf("netsim: detach %q: %w", id, ErrUnknownNode)
	}
	n.WAN.Close()
	n.LAN.Close()
	t.retired = append(t.retired, n)
	delete(t.nodes, id)
	return nil
}

// SetWANConfig reprices every attached node's WAN link and every future
// attachment — the registry failing over to a degraded mirror, then
// recovering. Bytes already moved keep their original pricing.
func (t *Topology) SetWANConfig(cfg LinkConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wanCfg = cfg
	for _, n := range t.nodes {
		// Attached links are never closed, so SetConfig cannot fail.
		if err := n.WAN.SetConfig(cfg); err != nil {
			return err
		}
	}
	return nil
}

// WANConfig returns the configuration new WAN attachments receive.
func (t *Topology) WANConfig() LinkConfig {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wanCfg
}

// WANStats sums the registry-side traffic over every node — the
// fleet's total registry egress. Detached nodes' past traffic counts.
func (t *Topology) WANStats() Stats {
	return t.sum(func(n *NodeLinks) *Link { return n.WAN })
}

// LANStats sums the intra-cluster peer traffic over every node.
// Detached nodes' past traffic counts.
func (t *Topology) LANStats() Stats {
	return t.sum(func(n *NodeLinks) *Link { return n.LAN })
}

func (t *Topology) sum(pick func(*NodeLinks) *Link) Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total Stats
	for _, n := range t.nodes {
		total = total.add(pick(n).Stats())
	}
	for _, n := range t.retired {
		total = total.add(pick(n).Stats())
	}
	return total
}

// add returns the element-wise sum of two stats snapshots.
func (s Stats) add(o Stats) Stats {
	return Stats{
		Bytes:    s.Bytes + o.Bytes,
		Requests: s.Requests + o.Requests,
		Elapsed:  s.Elapsed + o.Elapsed,
	}
}

// Sub returns the element-wise difference s - o: the traffic carried
// between two snapshots of the same link or topology.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Bytes:    s.Bytes - o.Bytes,
		Requests: s.Requests - o.Requests,
		Elapsed:  s.Elapsed - o.Elapsed,
	}
}
