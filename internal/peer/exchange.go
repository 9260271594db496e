package peer

import (
	"fmt"
	"sync"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
)

// Locator is the tracker-side view the fetch path needs: who, other
// than me, holds this file? *Tracker and *TrackerClient both satisfy
// it.
type Locator interface {
	Locate(fp hashing.Fingerprint, exclude string) []string
}

// FileServer is what a located holder must offer: the registry's
// download verb. *Server and gearregistry HTTP clients both satisfy it.
type FileServer interface {
	Download(fp hashing.Fingerprint) (payload []byte, wireBytes int64, err error)
}

// Network resolves a holder id to its FileServer — the cluster's
// dialing plane.
type Network interface {
	Peer(id string) (FileServer, bool)
}

// StaticNetwork is a fixed in-process Network, the deployment
// simulator's cluster fabric. Safe for concurrent use.
type StaticNetwork struct {
	mu    sync.RWMutex
	peers map[string]FileServer
}

// NewStaticNetwork returns an empty network.
func NewStaticNetwork() *StaticNetwork {
	return &StaticNetwork{peers: make(map[string]FileServer)}
}

// Add registers (or replaces) the server for id.
func (n *StaticNetwork) Add(id string, s FileServer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[id] = s
}

// Remove deregisters the server for id — a node leaving the cluster.
// Locates that still name the departed holder miss on dial and fall
// back to the next holder or the registry.
func (n *StaticNetwork) Remove(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.peers, id)
}

// Peer implements Network.
func (n *StaticNetwork) Peer(id string) (FileServer, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s, ok := n.peers[id]
	return s, ok
}

// Exchange is a node's fetch-side of peer distribution: it locates
// holders through the tracker, downloads from the first that delivers
// verifiable bytes, and reports a miss otherwise so the caller falls
// back to the registry. It plugs into the store's fetch path as its
// peer source. Safe for concurrent use.
type Exchange struct {
	self    string
	tracker Locator
	network Network

	hits, misses     *telemetry.Counter
	corrupt, errored *telemetry.Counter
	objects, bytes   *telemetry.Counter
}

// NewExchange returns the exchange for the node named self, publishing
// peer.fetch.* metrics into reg — typically the owning daemon's
// registry. Nil gets private, live handles.
func NewExchange(self string, tracker Locator, network Network, reg *telemetry.Registry) *Exchange {
	return &Exchange{
		self:    self,
		tracker: tracker,
		network: network,
		hits:    reg.Counter("peer.fetch.hits"),
		misses:  reg.Counter("peer.fetch.misses"),
		corrupt: reg.Counter("peer.fetch.corrupt"),
		errored: reg.Counter("peer.fetch.errored"),
		objects: reg.Counter("peer.fetch.objects"),
		bytes:   reg.Counter("peer.fetch.bytes"),
	}
}

// FetchPeer tries to obtain fp from a cluster peer. It walks the
// tracker's holder list (self excluded), skipping holders that error or
// return bytes failing fingerprint verification — a corrupt peer costs
// one wasted probe, never corrupt data. ok=false means no peer could
// serve the file and the caller should use the registry.
func (e *Exchange) FetchPeer(fp hashing.Fingerprint) (data []byte, wire int64, ok bool) {
	for _, id := range e.tracker.Locate(fp, e.self) {
		srv, found := e.network.Peer(id)
		if !found {
			continue
		}
		payload, w, err := srv.Download(fp)
		if err != nil {
			e.errored.Add(1)
			continue
		}
		if err := verifyPeer(fp, payload); err != nil {
			e.corrupt.Add(1)
			continue
		}
		e.hits.Add(1)
		e.objects.Add(1)
		e.bytes.Add(w)
		return payload, w, true
	}
	e.misses.Add(1)
	return nil, 0, false
}

// verifyPeer checks a peer payload against its content address;
// collision fallback IDs ("<fp>-cN") cannot be verified by hashing and
// are accepted here — the store re-verifies everything it caches.
func verifyPeer(fp hashing.Fingerprint, data []byte) error {
	if len(fp) == 32 && !fp.Matches(data) {
		return fmt.Errorf("peer: %s: %w", fp, ErrCorruptPeer)
	}
	return nil
}

// ErrCorruptPeer reports a peer whose bytes fail fingerprint
// verification.
var ErrCorruptPeer = fmt.Errorf("peer served bytes failing fingerprint verification")
