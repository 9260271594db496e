package convert

import (
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/registry"
)

func newPusher(t *testing.T, opts PushOptions) *Pusher {
	t.Helper()
	p, err := NewPusher(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPushAllMatchesSerialPublish(t *testing.T) {
	res, err := newConverter(t, Options{}).Convert(buildImage(t, "app", "v1"))
	if err != nil {
		t.Fatal(err)
	}

	// Serial baseline: Publish into a fresh registry.
	serialDocker, serialGear := registry.New(), gearregistry.New(gearregistry.Options{})
	_, wantBytes, err := Publish(res, serialDocker, serialGear)
	if err != nil {
		t.Fatal(err)
	}

	gear := gearregistry.New(gearregistry.Options{})
	docker := registry.New()
	var windows []PushWindow
	p := newPusher(t, PushOptions{Gear: gear, OnPushWindow: func(w PushWindow) {
		windows = append(windows, w)
	}})
	_, window, err := p.Push(res, docker)
	if err != nil {
		t.Fatal(err)
	}

	// Same objects and bytes as the serial path, in one query round trip.
	if got := window.Bytes(); got != wantBytes {
		t.Errorf("uploaded bytes = %d, serial Publish uploaded %d", got, wantBytes)
	}
	if window.Uploaded() != len(res.Files) {
		t.Errorf("uploaded %d objects, want %d", window.Uploaded(), len(res.Files))
	}
	if window.Queried != len(res.Files) || window.QueryRoundTrips != 1 {
		t.Errorf("query accounting = %+v, want one batched round trip over %d fps", window, len(res.Files))
	}
	if window.Skipped != 0 || window.Deduped != 0 {
		t.Errorf("cold push skipped=%d deduped=%d, want 0/0", window.Skipped, window.Deduped)
	}
	if gs, ws := gear.Stats(), serialGear.Stats(); gs != ws {
		t.Errorf("registry stats %+v differ from serial baseline %+v", gs, ws)
	}
	if len(windows) != 1 {
		t.Errorf("OnPushWindow fired %d times, want 1", len(windows))
	}

	// Second push of the same image: every file already exists remotely,
	// so exactly one QueryBatch round trip and zero uploads.
	window, err = newPusher(t, PushOptions{Gear: gear}).PushAll(res.Files)
	if err != nil {
		t.Fatal(err)
	}
	if window.QueryRoundTrips != 1 {
		t.Errorf("warm push took %d query round trips, want exactly 1", window.QueryRoundTrips)
	}
	if window.Uploaded() != 0 || window.Bytes() != 0 {
		t.Errorf("warm push uploaded %d objects / %d bytes, want zero",
			window.Uploaded(), window.Bytes())
	}
	if window.Skipped != len(res.Files) {
		t.Errorf("warm push skipped %d, want %d", window.Skipped, len(res.Files))
	}
}

func TestPushAllWorkerSweepIsBitIdentical(t *testing.T) {
	res, err := newConverter(t, Options{ChunkSize: 512}).Convert(buildImage(t, "app", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	baseline := gearregistry.New(gearregistry.Options{})
	if _, err := (newPusher(t, PushOptions{Gear: baseline, PushWorkers: 1})).PushAll(res.Files); err != nil {
		t.Fatal(err)
	}
	want := baseline.Stats()
	for _, workers := range []int{2, 4, 8, 16} {
		gear := gearregistry.New(gearregistry.Options{})
		window, err := newPusher(t, PushOptions{Gear: gear, PushWorkers: workers}).PushAll(res.Files)
		if err != nil {
			t.Fatal(err)
		}
		if got := gear.Stats(); got != want {
			t.Errorf("workers=%d: registry stats %+v, want %+v", workers, got, want)
		}
		if window.Uploaded() != len(res.Files) {
			t.Errorf("workers=%d: uploaded %d, want %d", workers, window.Uploaded(), len(res.Files))
		}
		if len(window.Streams) > workers {
			t.Errorf("workers=%d: %d streams", workers, len(window.Streams))
		}
	}
}

// Concurrent pushes of overlapping file sets must upload each
// fingerprint exactly once: later callers either join the in-flight
// upload (Deduped) or see it present (Skipped); the registry never
// records a duplicate upload.
func TestPushAllSingleflight(t *testing.T) {
	res, err := newConverter(t, Options{}).Convert(buildImage(t, "app", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	gear := gearregistry.New(gearregistry.Options{})
	p := newPusher(t, PushOptions{Gear: gear, PushWorkers: 4})

	const pushers = 8
	windows := make([]PushWindow, pushers)
	errs := make([]error, pushers)
	var wg sync.WaitGroup
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			windows[i], errs[i] = p.PushAll(res.Files)
		}(i)
	}
	wg.Wait()

	var uploaded, skipped, deduped int
	for i := range windows {
		if errs[i] != nil {
			t.Fatalf("pusher %d: %v", i, errs[i])
		}
		uploaded += windows[i].Uploaded()
		skipped += windows[i].Skipped
		deduped += windows[i].Deduped
	}
	if uploaded != len(res.Files) {
		t.Errorf("uploaded %d objects across %d pushers, want exactly %d",
			uploaded, pushers, len(res.Files))
	}
	if skipped+deduped != (pushers-1)*len(res.Files) {
		t.Errorf("skipped=%d deduped=%d, want %d total avoided uploads",
			skipped, deduped, (pushers-1)*len(res.Files))
	}
	st := gear.Stats()
	if st.DedupHits != 0 {
		t.Errorf("registry dedup hits = %d, want 0 (no duplicate uploads)", st.DedupHits)
	}
	if st.Objects != len(res.Files) {
		t.Errorf("registry objects = %d, want %d", st.Objects, len(res.Files))
	}
}

func TestNewPusherValidates(t *testing.T) {
	if _, err := NewPusher(PushOptions{}); err == nil {
		t.Error("NewPusher accepted a nil gear registry")
	}
}

func TestPushAllEmptySet(t *testing.T) {
	p := newPusher(t, PushOptions{
		Gear:         gearregistry.New(gearregistry.Options{}),
		OnPushWindow: func(PushWindow) { t.Error("hook fired for empty push") },
	})
	window, err := p.PushAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if window.Queried != 0 || window.Uploaded() != 0 {
		t.Errorf("empty push window = %+v", window)
	}
}
