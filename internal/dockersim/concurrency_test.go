package dockersim

import (
	"sync"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/netsim"
)

// TestParallelGearDeploys: distinct containers of one image deploying
// concurrently must all succeed, produce correct content, and fetch
// each Gear file exactly once between them.
func TestParallelGearDeploys(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d := r.newDaemon(t, 904)
	access := r.access(t, 0)

	const deploys = 8
	deps := make([]*Deployment, deploys)
	errs := make([]error, deploys)
	var wg sync.WaitGroup
	for i := 0; i < deploys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deps[i], errs[i] = d.DeployGear("gear/nginx", "v01", access, 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}

	// Container IDs must be unique.
	ids := make(map[string]bool)
	for _, dep := range deps {
		if ids[dep.ContainerID] {
			t.Errorf("duplicate container id %s", dep.ContainerID)
		}
		ids[dep.ContainerID] = true
	}

	// Each deploy numbered its own span tree, whatever ran beside it: IDs
	// 1..n in order, every parent before its child, and one root.
	for _, dep := range deps {
		roots := 0
		for i, sp := range dep.Trace() {
			if sp.ID != int64(i+1) || sp.Parent >= sp.ID {
				t.Errorf("%s: span %d has ID %d, parent %d", dep.ContainerID, i, sp.ID, sp.Parent)
			}
			if sp.Parent == 0 {
				roots++
			}
		}
		if roots != 1 {
			t.Errorf("%s: tree has %d roots, want 1", dep.ContainerID, roots)
		}
	}

	// Every deployment reads the same correct content.
	want, _, err := deps[0].Read(access[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range deps[1:] {
		got, _, err := dep.Read(access[0])
		if err != nil || string(got) != string(want) {
			t.Fatalf("%s: read mismatch (%v)", dep.ContainerID, err)
		}
	}

	// Singleflight across viewers: remote objects fetched once per
	// distinct fingerprint, regardless of 8 containers faulting them.
	serial := r.newDaemon(t, 904)
	if _, err := serial.DeployGear("gear/nginx", "v01", access, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Snapshot().Counter("store.remote.objects"), serial.Snapshot().Counter("store.remote.objects"); got != want {
		t.Errorf("parallel deploys fetched %d objects, serial baseline %d", got, want)
	}

	for _, dep := range deps {
		if _, err := dep.Destroy(); err != nil {
			t.Error(err)
		}
	}
}

// TestParallelMixedModeDeploys: Docker, Gear, and Slacker deploys racing
// on one daemon must be race-free and each produce valid deployments.
func TestParallelMixedModeDeploys(t *testing.T) {
	r := buildRig(t, "redis", 2)
	d := r.newDaemon(t, 904)
	a0, a1 := r.access(t, 0), r.access(t, 1)

	var wg sync.WaitGroup
	errc := make(chan error, 6)
	launch := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errc <- err
			}
		}()
	}
	for i := 0; i < 2; i++ {
		version, access := "v01", a0
		if i == 1 {
			version, access = "v02", a1
		}
		launch(func() error {
			_, err := d.DeployDocker("redis", version, access, 0)
			return err
		})
		launch(func() error {
			_, err := d.DeployGear("gear/redis", version, access, 0)
			return err
		})
		launch(func() error {
			_, err := d.DeploySlacker("redis", version, access, 0)
			return err
		})
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestFetchWorkersDeployEquivalence: a cold-cache Gear deploy moves the
// same bytes and requests at every worker count, and its deploy time is
// monotonically non-increasing from 1 to 8 workers; workers=1 uses the
// serial fault path (the pre-change baseline).
func TestFetchWorkersDeployEquivalence(t *testing.T) {
	r := buildRig(t, "mysql", 1)
	access := r.access(t, 0)

	type point struct {
		workers int
		time    time.Duration
		bytes   int64
		reqs    int64
	}
	var points []point
	for _, w := range []int{1, 2, 4, 8} {
		d, err := NewDaemon(r.docker, r.gear, Options{
			Link:         netsim.DefaultLAN().WithBandwidth(904.0 / 1000),
			FetchWorkers: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		dep, err := d.DeployGear("gear/mysql", "v01", access, 0)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, point{w, dep.Total(), dep.Pull.Bytes + dep.Run.Bytes,
			dep.Pull.Requests + dep.Run.Requests})
	}
	base := points[0]
	for _, p := range points[1:] {
		if p.bytes != base.bytes || p.reqs != base.reqs {
			t.Errorf("workers=%d: bytes/requests = %d/%d, want %d/%d (volume must not depend on workers)",
				p.workers, p.bytes, p.reqs, base.bytes, base.reqs)
		}
	}
	for i := 1; i < len(points); i++ {
		if points[i].time > points[i-1].time {
			t.Errorf("deploy time increased from workers=%d (%v) to workers=%d (%v)",
				points[i-1].workers, points[i-1].time, points[i].workers, points[i].time)
		}
	}
	if points[0].time <= points[len(points)-1].time {
		t.Logf("note: speedup 1->8 workers: %v -> %v", points[0].time, points[len(points)-1].time)
	}
}

// TestConcurrentDeployDestroyLoop: deploy/read/destroy cycles racing on
// one daemon (the lifecycle the RemoveContainer lock fix protects).
func TestConcurrentDeployDestroyLoop(t *testing.T) {
	r := buildRig(t, "tomcat", 1)
	d := r.newDaemon(t, 904)
	access := r.access(t, 0)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				dep, err := d.DeployGear("gear/tomcat", "v01", access, 0)
				if err != nil {
					t.Errorf("deploy: %v", err)
					return
				}
				if _, _, err := dep.Read(access[0]); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if _, err := dep.Destroy(); err != nil {
					t.Errorf("destroy: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := d.Snapshot().Gauge("store.containers"); got != 0 {
		t.Errorf("containers left = %d, want 0", got)
	}
}

// A Gear deploy that fails after creating its container destroys it:
// the caller gets no Deployment to destroy it with.
func TestFailedGearDeployLeavesNoContainer(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d := r.newDaemon(t, 904)
	for i := 0; i < 3; i++ {
		if dep, err := d.DeployGear("gear/nginx", "v01", []string{"/no/such/file"}, 0); err == nil {
			t.Fatalf("deploy %d reading a missing path succeeded: %v", i, dep.ContainerID)
		}
	}
	if got := d.Snapshot().Gauge("store.containers"); got != 0 {
		t.Errorf("containers left = %d, want 0", got)
	}
}
