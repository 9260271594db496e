package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// fakePeers is a PeerSource with scriptable behavior per fingerprint:
// serve, corrupt the payload, or miss. It counts probes to assert the
// singleflight invariant holds across the peer path too.
type fakePeers struct {
	mu      sync.Mutex
	data    map[hashing.Fingerprint][]byte
	corrupt map[hashing.Fingerprint]bool // serve wrong bytes for these
	calls   map[hashing.Fingerprint]int
}

func newFakePeers(pool map[hashing.Fingerprint][]byte) *fakePeers {
	data := make(map[hashing.Fingerprint][]byte, len(pool))
	for fp, d := range pool {
		data[fp] = d
	}
	return &fakePeers{
		data:    data,
		corrupt: make(map[hashing.Fingerprint]bool),
		calls:   make(map[hashing.Fingerprint]int),
	}
}

func (p *fakePeers) FetchPeer(fp hashing.Fingerprint) ([]byte, int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls[fp]++
	d, ok := p.data[fp]
	if !ok {
		return nil, 0, false
	}
	if p.corrupt[fp] {
		d = append([]byte("flipped:"), d...)
	}
	return d, int64(len(d)), true
}

func (p *fakePeers) counts() map[hashing.Fingerprint]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[hashing.Fingerprint]int, len(p.calls))
	for fp, n := range p.calls {
		out[fp] = n
	}
	return out
}

// peerFixture builds an image whose file pool is known to the caller,
// uploaded to a fresh registry.
func peerFixture(t *testing.T, files int) (*index.Index, map[hashing.Fingerprint][]byte, *gearregistry.Registry) {
	t.Helper()
	root := vfs.New()
	if err := root.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		data := bytes.Repeat([]byte(fmt.Sprintf("peer file %d ", i)), 64)
		if err := root.WriteFile(fmt.Sprintf("/data/f%03d", i), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ix, pool, err := index.Build("peered", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	return ix, pool, reg
}

func poolFingerprints(pool map[hashing.Fingerprint][]byte) []hashing.Fingerprint {
	fps := make([]hashing.Fingerprint, 0, len(pool))
	for fp := range pool {
		fps = append(fps, fp)
	}
	return fps
}

// TestPeerFetchServesFromPeersNotRegistry: with a peer source that holds
// everything, both the FetchAll path and the lazy fault path are served
// entirely by peers — zero registry traffic, correct bytes, and peer
// accounting visible through the store's counters and the OnTransfer hook.
func TestPeerFetchServesFromPeersNotRegistry(t *testing.T) {
	ix, pool, reg := peerFixture(t, 10)
	counting := newCountingStore(reg)
	peers := newFakePeers(pool)

	var hookObjects atomic.Int64
	var hookBytes atomic.Int64
	s := mustStore(t, Options{
		Remote: counting,
		Peers:  peers,
		OnTransfer: func(t Transfer) time.Duration {
			hookObjects.Add(int64(t.Peer.Objects))
			hookBytes.Add(t.Peer.Bytes)
			return 0
		},
	})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}

	// Half through the batched FetchAll path...
	fps := poolFingerprints(pool)
	half := fps[:len(fps)/2]
	if _, err := s.FetchAll(half); err != nil {
		t.Fatal(err)
	}
	// ...the rest through lazy faults.
	v, err := s.CreateContainer("c0", "peered:v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/data/f%03d", i)
		got, err := v.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte(fmt.Sprintf("peer file %d ", i)), 64)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: peer-served content differs", p)
		}
	}

	st := metrics(s)
	if st.Counter("store.peer.objects") != int64(len(pool)) {
		t.Errorf("peer objects = %d, want %d", st.Counter("store.peer.objects"), len(pool))
	}
	if st.Counter("store.remote.objects") != 0 || st.Counter("store.remote.bytes") != 0 {
		t.Errorf("registry traffic = %d objects / %d bytes, want none", st.Counter("store.remote.objects"), st.Counter("store.remote.bytes"))
	}
	if len(counting.counts()) != 0 {
		t.Errorf("registry saw downloads: %v", counting.counts())
	}
	if hookObjects.Load() != st.Counter("store.peer.objects") || hookBytes.Load() != st.Counter("store.peer.bytes") {
		t.Errorf("OnTransfer saw %d/%d from peers, stats say %d/%d",
			hookObjects.Load(), hookBytes.Load(), st.Counter("store.peer.objects"), st.Counter("store.peer.bytes"))
	}
}

// TestCorruptPeerFallsBackToRegistry: a peer serving bytes that fail
// fingerprint verification is ignored — every object transparently
// falls back to the registry, content stays correct, and nothing
// corrupt is ever attributed to the peer path.
func TestCorruptPeerFallsBackToRegistry(t *testing.T) {
	ix, pool, reg := peerFixture(t, 8)
	counting := newCountingStore(reg)
	peers := newFakePeers(pool)
	for fp := range pool {
		peers.corrupt[fp] = true
	}

	s := mustStore(t, Options{Remote: counting, Peers: peers})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}

	fps := poolFingerprints(pool)
	if _, err := s.FetchAll(fps[:len(fps)/2]); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c0", "peered:v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/data/f%03d", i)
		got, err := v.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte(fmt.Sprintf("peer file %d ", i)), 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: corrupt peer bytes reached a container", p)
		}
	}

	st := metrics(s)
	if st.Counter("store.peer.objects") != 0 || st.Counter("store.peer.bytes") != 0 {
		t.Errorf("corrupt peer accounted as %d objects / %d bytes", st.Counter("store.peer.objects"), st.Counter("store.peer.bytes"))
	}
	if st.Counter("store.remote.objects") != int64(len(pool)) {
		t.Errorf("registry objects = %d, want %d", st.Counter("store.remote.objects"), len(pool))
	}
	// Fallback preserves singleflight: exactly one registry download per
	// fingerprint despite the wasted peer probes.
	for fp, n := range counting.counts() {
		if n != 1 {
			t.Errorf("fingerprint %s downloaded %d times, want 1", fp, n)
		}
	}
}

// TestMixedPeerOutcomesSplitAccounting: peers hold some files, corrupt
// others, and miss the rest; each object lands on exactly one side of
// the peer/registry accounting split.
func TestMixedPeerOutcomesSplitAccounting(t *testing.T) {
	ix, pool, reg := peerFixture(t, 9)
	counting := newCountingStore(reg)
	peers := newFakePeers(pool)
	fps := poolFingerprints(pool)
	served := map[hashing.Fingerprint]bool{}
	for i, fp := range fps {
		switch i % 3 {
		case 0: // served intact
			served[fp] = true
		case 1: // served corrupt → registry
			peers.corrupt[fp] = true
		case 2: // not held → registry
			delete(peers.data, fp)
		}
	}

	s := mustStore(t, Options{Remote: counting, Peers: peers})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchAll(fps); err != nil {
		t.Fatal(err)
	}

	st := metrics(s)
	wantPeer := int64(len(served))
	if st.Counter("store.peer.objects") != wantPeer {
		t.Errorf("peer objects = %d, want %d", st.Counter("store.peer.objects"), wantPeer)
	}
	if st.Counter("store.remote.objects") != int64(len(fps))-wantPeer {
		t.Errorf("registry objects = %d, want %d", st.Counter("store.remote.objects"), int64(len(fps))-wantPeer)
	}
	for fp, n := range counting.counts() {
		if served[fp] {
			t.Errorf("peer-served %s also hit the registry %d times", fp, n)
		}
		if n != 1 {
			t.Errorf("fingerprint %s downloaded %d times, want 1", fp, n)
		}
	}
}

// TestPeerFetchPreservesSingleflight: concurrent faults on the same
// files with a peer source must probe each peer fingerprint at most
// once — joiners wait on the leader's flight instead of re-probing.
func TestPeerFetchPreservesSingleflight(t *testing.T) {
	const goroutines = 16
	ix, pool, reg := peerFixture(t, 12)
	counting := newCountingStore(reg)
	peers := newFakePeers(pool)

	s := mustStore(t, Options{Remote: counting, Peers: peers})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}

	paths := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		paths = append(paths, fmt.Sprintf("/data/f%03d", i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		v, err := s.CreateContainer(fmt.Sprintf("c%d", g), "peered:v1")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range paths {
				if _, err := v.ReadFile(p); err != nil {
					errs <- fmt.Errorf("%s: %w", p, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for fp, n := range peers.counts() {
		if n != 1 {
			t.Errorf("fingerprint %s probed %d times, want 1", fp, n)
		}
	}
	if got := len(counting.counts()); got != 0 {
		t.Errorf("registry saw %d downloads, want 0", got)
	}
	if st := metrics(s); st.Counter("store.peer.objects") != 12 {
		t.Errorf("peer objects = %d, want 12", st.Counter("store.peer.objects"))
	}
}
