package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// prefetchFixture builds an image with five "startup" files plus one
// off-profile file, publishes it to a registry, and returns the index,
// the per-path fingerprints, and the registry.
func prefetchFixture(t *testing.T) (*index.Index, map[string]hashing.Fingerprint, *gearregistry.Registry) {
	t.Helper()
	root := vfs.New()
	contents := map[string][]byte{"/d": []byte("demand-only file, not in any profile")}
	for i := 0; i < 5; i++ {
		contents[fmt.Sprintf("/p%d", i)] = bytes.Repeat([]byte{byte('a' + i)}, 512)
	}
	fps := make(map[string]hashing.Fingerprint, len(contents))
	for p, data := range contents {
		if err := root.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fps[p] = hashing.FingerprintBytes(data)
	}
	ix, pool, err := index.Build("web", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	return ix, fps, reg
}

// startupProfile persists the p-files' access order into a library.
func startupProfile(t *testing.T, fps map[string]hashing.Fingerprint) *prefetch.Library {
	t.Helper()
	lib := prefetch.NewLibrary()
	p := &prefetch.Profile{ImageRef: "web:v1"}
	for i := 0; i < 5; i++ {
		p.Entries = append(p.Entries, prefetch.Entry{
			Fingerprint: fps[fmt.Sprintf("/p%d", i)],
			Size:        512,
		})
	}
	if err := lib.Put(p); err != nil {
		t.Fatal(err)
	}
	return lib
}

// blockingRemote wraps a registry so the test controls exactly when
// each download finishes. A batch is served object by object through
// Download, so concurrency is observable per object.
type blockingRemote struct {
	gearregistry.Store
	startCh chan hashing.Fingerprint // signals every download start
	gates   map[hashing.Fingerprint]chan struct{}

	mu          sync.Mutex
	completed   []hashing.Fingerprint
	prefetchSet map[hashing.Fingerprint]bool
	cur, max    int // in-flight prefetch-class downloads
}

func newBlockingRemote(backing gearregistry.Store, prefetchSet map[hashing.Fingerprint]bool) *blockingRemote {
	return &blockingRemote{
		Store:       backing,
		startCh:     make(chan hashing.Fingerprint, 64),
		gates:       make(map[hashing.Fingerprint]chan struct{}),
		prefetchSet: prefetchSet,
	}
}

func (b *blockingRemote) gate(fp hashing.Fingerprint) chan struct{} {
	ch := make(chan struct{})
	b.gates[fp] = ch
	return ch
}

func (b *blockingRemote) DownloadBatch(fps []hashing.Fingerprint) ([][]byte, int64, error) {
	return perObject(b.Download, fps)
}

func (b *blockingRemote) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	b.mu.Lock()
	if b.prefetchSet[fp] {
		b.cur++
		if b.cur > b.max {
			b.max = b.cur
		}
	}
	gate := b.gates[fp]
	b.mu.Unlock()
	b.startCh <- fp
	if gate != nil {
		<-gate
	}
	data, wire, err := b.Store.Download(fp)
	b.mu.Lock()
	if b.prefetchSet[fp] {
		b.cur--
	}
	b.completed = append(b.completed, fp)
	b.mu.Unlock()
	return data, wire, err
}

func (b *blockingRemote) waitStarts(t *testing.T, n int) []hashing.Fingerprint {
	t.Helper()
	var got []hashing.Fingerprint
	for len(got) < n {
		select {
		case fp := <-b.startCh:
			got = append(got, fp)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %d download starts (got %d)", n, len(got))
		}
	}
	return got
}

func (b *blockingRemote) snapshot() (completed []hashing.Fingerprint, maxPrefetch int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]hashing.Fingerprint(nil), b.completed...), b.max
}

// TestGate pins the admission gate's rule table on a 100-byte budget.
// Each case admits the held transfers, optionally parks one more demand
// transfer behind them (waiter), and then enters the transfer under
// test: it is admitted at once, refused, or blocked — and a blocked or
// refused one is admitted once the first held transfer leaves.
func TestGate(t *testing.T) {
	type transfer struct {
		class fetchClass
		size  int64
	}
	const admitted, refused, blocked = "admitted", "refused", "blocked"
	cases := []struct {
		name   string
		held   []transfer
		waiter int64 // size of a demand transfer blocked behind held; 0 = none
		enter  transfer
		want   string
		peak   int64 // high-water mark at the end: over budget only when oversize
	}{
		{"demand of known size", nil, 0, transfer{classDemand, 60}, admitted, 60},
		{"demand of unknown size holds nothing", []transfer{{classDemand, 100}}, 0, transfer{classDemand, 0}, admitted, 100},
		{"demand waits for budget", []transfer{{classDemand, 80}}, 0, transfer{classDemand, 40}, blocked, 80},
		{"oversize demand is admitted alone", nil, 0, transfer{classDemand, 250}, admitted, 250},
		{"oversize demand is serial", []transfer{{classDemand, 10}}, 0, transfer{classDemand, 250}, blocked, 250},
		{"readahead runs beside active demand", []transfer{{classDemand, 50}}, 0, transfer{classReadahead, 50}, admitted, 100},
		{"readahead refused without room", []transfer{{classDemand, 80}}, 0, transfer{classReadahead, 40}, refused, 80},
		{"readahead refused while demand waits", []transfer{{classDemand, 80}}, 40, transfer{classReadahead, 10}, refused, 80},
		{"replay blocked while demand is active", []transfer{{classDemand, 0}}, 0, transfer{classReplay, 0}, blocked, 0},
		{"replay runs beside readahead", []transfer{{classReadahead, 100}}, 0, transfer{classReplay, 0}, admitted, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peak := telemetry.NewRegistry().Gauge("peak")
			g := newGate(100, peak)
			for _, h := range tc.held {
				if !g.enter(h.class, h.size) {
					t.Fatalf("held %+v refused", h)
				}
			}
			parked := func(n int) func() bool {
				return func() bool {
					g.mu.Lock()
					defer g.mu.Unlock()
					return g.waiting == n
				}
			}
			waiterIn := make(chan struct{})
			if tc.waiter > 0 {
				go func() {
					g.enter(classDemand, tc.waiter)
					close(waiterIn)
				}()
				waitFor(t, parked(1))
			}
			got := make(chan bool, 1)
			go func() { got <- g.enter(tc.enter.class, tc.enter.size) }()
			switch tc.want {
			case admitted:
				if !<-got {
					t.Fatal("refused, want admitted")
				}
			case refused:
				if <-got {
					t.Fatal("admitted, want refused")
				}
				g.leave(tc.held[0].class, tc.held[0].size)
				if tc.waiter > 0 {
					<-waiterIn // the demand it yielded to is served first
				}
				if !g.enter(tc.enter.class, tc.enter.size) {
					t.Fatal("still refused with free budget and no demand waiting")
				}
			case blocked:
				if tc.enter.class == classDemand {
					waitFor(t, parked(1))
				}
				select {
				case <-got:
					t.Fatal("admitted, want blocked")
				case <-time.After(20 * time.Millisecond):
				}
				g.leave(tc.held[0].class, tc.held[0].size)
				if !<-got {
					t.Fatal("refused after the budget was freed")
				}
			}
			if peak.Value() != tc.peak {
				t.Errorf("peak = %d, want %d", peak.Value(), tc.peak)
			}
		})
	}
}

// TestSchedulerDemandPreemptsPrefetch drives a background profile
// replay against a registry the test gates, and checks the replay
// contract: a demand miss arriving mid-replay starts immediately and
// completes before any queued prefetch object starts, and the replay
// never holds more than one group (replayGroup objects) in flight.
func TestSchedulerDemandPreemptsPrefetch(t *testing.T) {
	ix, fps, reg := prefetchFixture(t)
	lib := startupProfile(t, fps)

	prefetchSet := make(map[hashing.Fingerprint]bool)
	for i := 0; i < 5; i++ {
		prefetchSet[fps[fmt.Sprintf("/p%d", i)]] = true
	}
	remote := newBlockingRemote(reg, prefetchSet)
	// Gate half of the first prefetch group (p0..p3) and the demand
	// object; the second group (p4) runs ungated.
	gateP0 := remote.gate(fps["/p0"])
	gateP1 := remote.gate(fps["/p1"])
	gateD := remote.gate(fps["/d"])

	s := mustStore(t, Options{Remote: remote, Profiles: lib})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}

	// The replay runs in the background, as a deploy that does not wait
	// for it would run it: the container faults while it warms the cache.
	replayDone := make(chan error, 1)
	go func() {
		_, err := s.PrefetchProfile("web:v1")
		replayDone <- err
	}()
	// The first admission group is in flight, held by its gated half.
	remote.waitStarts(t, replayGroup)

	// A demand miss starts immediately even with a full group in flight.
	readDone := make(chan error, 1)
	go func() {
		_, err := v.ReadFile("/d")
		readDone <- err
	}()
	if got := remote.waitStarts(t, 1); got[0] != fps["/d"] {
		t.Fatalf("third download start = %s, want demand object %s", got[0], fps["/d"])
	}

	// Retire prefetch group 1. The demand transfer is still active, so
	// group 2 must stay queued: no new download may start.
	close(gateP0)
	close(gateP1)
	select {
	case fp := <-remote.startCh:
		t.Fatalf("download of %s started while a demand miss was active", fp)
	case <-time.After(100 * time.Millisecond):
	}

	// Release the demand object; the replay resumes only after it is
	// fully served.
	close(gateD)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
	remote.waitStarts(t, 1) // group 2 (p4)
	if err := <-replayDone; err != nil {
		t.Fatal(err)
	}

	completed, maxPrefetch := remote.snapshot()
	if maxPrefetch > replayGroup {
		t.Errorf("prefetch held %d objects in flight, a group is %d", maxPrefetch, replayGroup)
	}
	// The demand object finished before any post-preemption prefetch
	// object started, hence before any of them completed.
	demandAt, p4At := -1, -1
	for i, fp := range completed {
		if fp == fps["/d"] {
			demandAt = i
		}
		if fp == fps["/p4"] {
			p4At = i
		}
	}
	if demandAt == -1 || p4At == -1 || demandAt > p4At {
		t.Errorf("completion order %v: demand at %d, p4 at %d", completed, demandAt, p4At)
	}

	st := metrics(s)
	if st.Counter("store.demand.misses") != 1 {
		t.Errorf("demand misses = %d, want 1 (the /d fault)", st.Counter("store.demand.misses"))
	}
	if st.Counter("store.prefetch.objects") != 5 {
		t.Errorf("prefetch objects = %d, want 5", st.Counter("store.prefetch.objects"))
	}
	if st.Counter("store.prefetch.hits") != 0 || st.Gauge("store.prefetch.wasted") != 5 {
		t.Errorf("before any profile read: hits=%d wasted=%d, want 0/5", st.Counter("store.prefetch.hits"), st.Gauge("store.prefetch.wasted"))
	}

	// Demand reads of replayed files are cache hits and consume the
	// prefetched tags.
	for i := 0; i < 5; i++ {
		if _, err := v.ReadFile(fmt.Sprintf("/p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st = metrics(s)
	if st.Counter("store.demand.misses") != 1 {
		t.Errorf("profile reads caused demand misses: %d", st.Counter("store.demand.misses"))
	}
	if st.Counter("store.prefetch.hits") != 5 || st.Gauge("store.prefetch.wasted") != 0 {
		t.Errorf("after profile reads: hits=%d wasted=%d, want 5/0", st.Counter("store.prefetch.hits"), st.Gauge("store.prefetch.wasted"))
	}
}

// TestPrefetchProfileWarmRedeploy records a profile from a cold deploy,
// replays it on a fresh store, and checks the second deploy faults
// without a single demand miss — while total registry traffic stays
// identical to the cold run.
func TestPrefetchProfileWarmRedeploy(t *testing.T) {
	ix, fps, reg := prefetchFixture(t)
	lib := prefetch.NewLibrary()

	cold := mustStore(t, Options{Remote: reg, Profiles: lib})
	if err := cold.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := cold.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := v.ReadFile(fmt.Sprintf("/p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if saved, err := cold.SaveProfile("web:v1"); err != nil || !saved {
		t.Fatalf("SaveProfile = %v, %v; want save", saved, err)
	}
	coldStats := metrics(cold)
	if coldStats.Counter("store.demand.misses") != 5 {
		t.Fatalf("cold demand misses = %d, want 5", coldStats.Counter("store.demand.misses"))
	}

	// The persisted profile preserves first-access order.
	p, err := lib.Get("web:v1")
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range p.Entries {
		if want := fps[fmt.Sprintf("/p%d", i)]; e.Fingerprint != want {
			t.Fatalf("profile entry %d = %s, want %s", i, e.Fingerprint, want)
		}
	}

	warm := mustStore(t, Options{Remote: reg, Profiles: lib})
	if err := warm.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	res, err := warm.PrefetchProfile("web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Objects != 5 {
		t.Fatalf("replay = %+v, want Found with 5 objects", res)
	}
	v2, err := warm.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := v2.ReadFile(fmt.Sprintf("/p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	warmStats := metrics(warm)
	if warmStats.Counter("store.demand.misses") != 0 || warmStats.Counter("store.demand.stall.bytes") != 0 {
		t.Errorf("warm deploy stalled: misses=%d bytes=%d", warmStats.Counter("store.demand.misses"), warmStats.Counter("store.demand.stall.bytes"))
	}
	if warmStats.Counter("store.prefetch.hits") != 5 {
		t.Errorf("prefetch hits = %d, want 5", warmStats.Counter("store.prefetch.hits"))
	}
	if warmStats.Counter("store.remote.bytes") != coldStats.Counter("store.remote.bytes") {
		t.Errorf("warm remote bytes = %d, cold = %d; prefetch must not inflate traffic",
			warmStats.Counter("store.remote.bytes"), coldStats.Counter("store.remote.bytes"))
	}
}

// TestPrefetchProfileAbsentOrBroken: a missing, corrupt, or
// version-skewed profile silently degrades to a plain lazy deploy.
func TestPrefetchProfileAbsentOrBroken(t *testing.T) {
	ix, _, reg := prefetchFixture(t)
	lib := prefetch.NewLibrary()
	s := mustStore(t, Options{Remote: reg, Profiles: lib})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}

	res, err := s.PrefetchProfile("web:v1")
	if err != nil || res.Found {
		t.Fatalf("absent profile: %+v, %v; want not found, nil error", res, err)
	}

	lib.PutRaw("web:v1", []byte("GPF1 this is not a profile"))
	res, err = s.PrefetchProfile("web:v1")
	if err != nil || res.Found {
		t.Fatalf("corrupt profile: %+v, %v; want not found, nil error", res, err)
	}

	// Version skew: valid profile with a bumped version byte.
	good := &prefetch.Profile{ImageRef: "web:v1", Entries: []prefetch.Entry{
		{Fingerprint: hashing.FingerprintBytes([]byte("x")), Size: 1},
	}}
	data, err := prefetch.Encode(good)
	if err != nil {
		t.Fatal(err)
	}
	data[3] = '9'
	lib.PutRaw("web:v1", data)
	res, err = s.PrefetchProfile("web:v1")
	if err != nil || res.Found {
		t.Fatalf("version-skewed profile: %+v, %v; want not found, nil error", res, err)
	}

	if st := metrics(s); st.Counter("store.prefetch.objects") != 0 || st.Counter("store.remote.objects") != 0 {
		t.Errorf("degraded replays moved bytes: %+v", st)
	}
}

// TestSaveProfileKeepsRicherTrace: a shorter rerun trace (warm deploys
// fault less) must not clobber the profile that made it fast.
func TestSaveProfileKeepsRicherTrace(t *testing.T) {
	ix, fps, reg := prefetchFixture(t)
	lib := startupProfile(t, fps) // 5 entries persisted

	s := mustStore(t, Options{Remote: reg, Profiles: lib})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadFile("/p0"); err != nil {
		t.Fatal(err)
	}
	if saved, err := s.SaveProfile("web:v1"); err != nil || saved {
		t.Fatalf("SaveProfile with 1-entry trace = %v, %v; want no save", saved, err)
	}
	p, err := lib.Get("web:v1")
	if err != nil || len(p.Entries) != 5 {
		t.Fatalf("persisted profile shrank: %+v, %v", p, err)
	}

	// A richer trace (6 accesses: all five p-files plus /d) does replace it.
	for i := 1; i < 5; i++ {
		if _, err := v.ReadFile(fmt.Sprintf("/p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.ReadFile("/d"); err != nil {
		t.Fatal(err)
	}
	if saved, err := s.SaveProfile("web:v1"); err != nil || !saved {
		t.Fatalf("SaveProfile with richer trace = %v, %v; want save", saved, err)
	}
	p, err = lib.Get("web:v1")
	if err != nil || len(p.Entries) != 6 {
		t.Fatalf("richer trace not persisted: %+v, %v", p, err)
	}
}

// TestEagerPrefetchDoesNotRecord: a whole-image FetchAll is not a
// startup access pattern and must leave the profile recorder empty.
func TestEagerPrefetchDoesNotRecord(t *testing.T) {
	ix, _, reg := prefetchFixture(t)
	lib := prefetch.NewLibrary()
	s := mustStore(t, Options{Remote: reg, Profiles: lib})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchAll(imageFingerprints(ix)); err != nil {
		t.Fatal(err)
	}
	if saved, err := s.SaveProfile("web:v1"); err != nil || saved {
		t.Fatalf("SaveProfile after eager walk = %v, %v; want empty trace", saved, err)
	}
}

// TestViewerStallAgreesWithStore: a container's faults are the store's
// to count and time. Cold, every fault is a demand miss and the store
// times a stall. After a profile replay, faults still happen but hit
// the warmed cache: the store counts them as prefetch hits, with zero
// misses and zero stall.
func TestViewerStallAgreesWithStore(t *testing.T) {
	ix, fps, reg := prefetchFixture(t)
	lib := startupProfile(t, fps)

	cold := mustStore(t, Options{Remote: reg})
	if err := cold.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v, err := cold.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := v.ReadFile(fmt.Sprintf("/p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ss := metrics(cold)
	if got := ss.Counter("store.demand.misses"); got != 5 {
		t.Errorf("cold: store demand misses = %d, want one per fault (5)", got)
	}
	if got := ss.Counter("store.demand.stall.ns"); got <= 0 {
		t.Errorf("cold: store stall time = %d ns, want > 0", got)
	}

	warm := mustStore(t, Options{Remote: reg, Profiles: lib})
	if err := warm.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.PrefetchProfile("web:v1"); err != nil {
		t.Fatal(err)
	}
	v2, err := warm.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := v2.ReadFile(fmt.Sprintf("/p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ss2 := metrics(warm)
	if got := ss2.Counter("store.prefetch.hits"); got != 5 {
		t.Errorf("warm: prefetch hits = %d, want 5 (placeholders still fault, into the warmed cache)", got)
	}
	if misses, stall := ss2.Counter("store.demand.misses"), ss2.Counter("store.demand.stall.ns"); misses != 0 || stall != 0 {
		t.Errorf("warm: store misses=%d stall=%d ns, want 0/0", misses, stall)
	}
}
