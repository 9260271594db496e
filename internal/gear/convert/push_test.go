package convert

import (
	"errors"
	"path"
	"reflect"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/vfs"
)

func newPusher(t *testing.T, opts PushOptions) *Pusher {
	t.Helper()
	p, err := NewPusher(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serialPublish is the publish step as the paper words it (§III-C), kept
// as the oracle Pusher.Push is held to: every Gear file is queried by
// fingerprint and uploaded if absent, one request at a time, and the
// index image then goes down the unmodified Docker path. The window it
// returns counts one query round trip per file and one upload stream.
func serialPublish(res *Result, docker registry.Store, gear gearregistry.Store) (indexBytes int64, window PushWindow, err error) {
	var st PushStream
	for fp, data := range res.Files {
		present, err := gear.Query(fp)
		if err != nil {
			return 0, window, err
		}
		window.Queried++
		window.QueryRoundTrips++
		if present {
			window.Skipped++
			continue
		}
		if err := gear.Upload(fp, data); err != nil {
			return 0, window, err
		}
		st.Objects++
		st.Bytes += int64(len(data))
	}
	if st.Objects > 0 {
		window.Streams = []PushStream{st}
	}
	indexBytes, err = registry.Push(docker, res.IndexImage)
	return indexBytes, window, err
}

func TestPushAllMatchesSerialPublish(t *testing.T) {
	res, err := newConverter(t, Options{}).Convert(buildImage(t, "app", "v1"))
	if err != nil {
		t.Fatal(err)
	}

	// Serial baseline: the oracle into a fresh registry.
	serialDocker, serialGear := registry.New(), gearregistry.New(gearregistry.Options{})
	_, serial, err := serialPublish(res, serialDocker, serialGear)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := serial.Bytes()

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
		t.Errorf("uploaded bytes = %d, serial publish uploaded %d", got, wantBytes)
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
	res, err := newConverter(t, Options{Chunking: index.FixedChunks(512)}).Convert(buildImage(t, "app", "v1"))
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

// observedGear counts what a publisher asks of the Gear registry, so
// publishers that report no PushWindow are compared on the same terms as
// those that do.
type observedGear struct {
	gearregistry.Store

	mu                            sync.Mutex
	queryTrips, queried, uploaded int
	bytes                         int64
}

func (o *observedGear) Query(fp hashing.Fingerprint) (bool, error) {
	o.mu.Lock()
	o.queryTrips++
	o.queried++
	o.mu.Unlock()
	return o.Store.Query(fp)
}

func (o *observedGear) QueryBatch(fps []hashing.Fingerprint) ([]bool, error) {
	o.mu.Lock()
	o.queryTrips++
	o.queried += len(fps)
	o.mu.Unlock()
	return o.Store.QueryBatch(fps)
}

func (o *observedGear) Upload(fp hashing.Fingerprint, data []byte) error {
	o.mu.Lock()
	o.uploaded++
	o.bytes += int64(len(data))
	o.mu.Unlock()
	return o.Store.Upload(fp, data)
}

// versionPair converts two versions of one image that share some files
// and differ in others, so the second publish both skips and uploads.
func versionPair(t *testing.T) [2]*Result {
	t.Helper()
	next := vfs.New()
	for p, data := range map[string]string{"/bin/sh": "#!base shell", "/etc/conf": "config v2", "/etc/new": "added in v2"} {
		if err := next.MkdirAll(path.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := next.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	v2, err := imagefmt.SingleLayerImage("app", "v2", next, imagefmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conv := newConverter(t, Options{})
	var pair [2]*Result
	for i, img := range []*imagefmt.Image{buildImage(t, "app", "v1"), v2} {
		if pair[i], err = conv.Convert(img); err != nil {
			t.Fatal(err)
		}
	}
	return pair
}

// Every way to publish a Gear image leaves the same registries behind
// and asks the same of the Gear registry: the one-shot Publish, a Pusher
// at any worker count, and the paper's serial query-then-upload all store
// the same objects and manifests, query every fingerprint once and upload
// exactly the absent ones. Only the round trips differ: one per image for
// the Pusher, one per file for the oracle.
func TestEveryPublisherLeavesTheSameRegistries(t *testing.T) {
	type published struct {
		Gear                       gearregistry.Stats
		Manifests                  []string
		IndexBytes, Bytes          [2]int64
		Queried, Skipped, Uploaded [2]int
	}
	// A publisher reports the bytes it moved and, if it has one, its window.
	type publisher func(*Result, registry.Store, gearregistry.Store) (indexBytes, fileBytes int64, window *PushWindow, err error)
	windowed := func(push func(*Result, registry.Store, gearregistry.Store) (int64, PushWindow, error)) publisher {
		return func(res *Result, docker registry.Store, gear gearregistry.Store) (int64, int64, *PushWindow, error) {
			indexBytes, window, err := push(res, docker, gear)
			return indexBytes, window.Bytes(), &window, err
		}
	}
	pusher := func(workers int) publisher {
		return windowed(func(res *Result, docker registry.Store, gear gearregistry.Store) (int64, PushWindow, error) {
			return newPusher(t, PushOptions{Gear: gear, PushWorkers: workers}).Push(res, docker)
		})
	}
	rows := []struct {
		name    string
		publish publisher
		batched bool
	}{
		{"serialPublish oracle", windowed(serialPublish), false},
		{"Publish", func(res *Result, docker registry.Store, gear gearregistry.Store) (int64, int64, *PushWindow, error) {
			indexBytes, fileBytes, err := Publish(res, docker, gear)
			return indexBytes, fileBytes, nil, err
		}, true},
		{"Pusher.Push 1 worker", pusher(1), true},
		{"Pusher.Push 8 workers", pusher(8), true},
	}
	pair := versionPair(t)
	var want published
	for i, row := range rows {
		docker, pool := registry.New(), gearregistry.New(gearregistry.Options{Compress: true})
		var got published
		for v, res := range pair {
			gear := &observedGear{Store: pool}
			indexBytes, fileBytes, window, err := row.publish(res, docker, gear)
			if err != nil {
				t.Fatalf("%s: v%d: %v", row.name, v+1, err)
			}
			got.IndexBytes[v], got.Bytes[v] = indexBytes, gear.bytes
			got.Queried[v], got.Uploaded[v], got.Skipped[v] = gear.queried, gear.uploaded, gear.queried-gear.uploaded
			if fileBytes != gear.bytes {
				t.Errorf("%s: v%d: reported %d file bytes, the registry was sent %d", row.name, v+1, fileBytes, gear.bytes)
			}
			if window != nil && (window.Queried != gear.queried || window.Skipped != got.Skipped[v] ||
				window.Uploaded() != gear.uploaded || window.QueryRoundTrips != gear.queryTrips) {
				t.Errorf("%s: v%d: window %+v, the registry saw %d queried in %d trips and %d uploads",
					row.name, v+1, *window, gear.queried, gear.queryTrips, gear.uploaded)
			}
			wantTrips := len(res.Files)
			if row.batched {
				wantTrips = 1
			}
			if gear.queryTrips != wantTrips {
				t.Errorf("%s: v%d: %d query round trips, want %d", row.name, v+1, gear.queryTrips, wantTrips)
			}
		}
		var err error
		if got.Manifests, err = docker.ListManifests(); err != nil {
			t.Fatal(err)
		}
		got.Gear = pool.Stats()
		if i == 0 {
			want = got
			if got.Skipped[1] == 0 || got.Uploaded[1] == 0 || got.Gear.DedupHits != 0 || len(got.Manifests) != 2 {
				t.Fatalf("oracle published %+v: the second version must both skip and upload", got)
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s left\n %+v\nthe oracle\n %+v", row.name, got, want)
		}
	}
}

var errDisk = errors.New("disk full")

// failingUploads is a Gear registry whose disk is full: every verb works
// but Upload.
type failingUploads struct{ gearregistry.Store }

func (failingUploads) Upload(hashing.Fingerprint, []byte) error { return errDisk }

// A push that could not store every Gear file must not publish the index
// that names them: a deploy would pull it and fault on files no registry
// holds.
func TestFailedPushPublishesNoIndex(t *testing.T) {
	res, err := newConverter(t, Options{}).Convert(buildImage(t, "app", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	for name, publish := range map[string]func(docker registry.Store, gear gearregistry.Store) error{
		"Publish": func(docker registry.Store, gear gearregistry.Store) error {
			_, _, err := Publish(res, docker, gear)
			return err
		},
		"Pusher.Push": func(docker registry.Store, gear gearregistry.Store) error {
			_, _, err := newPusher(t, PushOptions{Gear: gear}).Push(res, docker)
			return err
		},
	} {
		docker := registry.New()
		err := publish(docker, failingUploads{gearregistry.New(gearregistry.Options{})})
		if !errors.Is(err, errDisk) {
			t.Errorf("%s: err = %v, want it to wrap errDisk", name, err)
		}
		if _, err := registry.Pull(docker, "app", "v1"); !errors.Is(err, registry.ErrManifestNotFound) {
			t.Errorf("%s: after the failed push, pulling the index: err = %v, want ErrManifestNotFound", name, err)
		}
	}
}
