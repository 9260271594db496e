package dockersim

import (
	"errors"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/slacker"
)

// rig is a full test deployment rig: a corpus series published to a
// Docker registry (originals + Gear index images), a Gear registry, and
// a Slacker block server.
type rig struct {
	corpus    *corpus.Corpus
	docker    *registry.Registry
	gear      *gearregistry.Registry
	slackSrv  *slacker.Server
	series    string
	numImages int
}

func buildRig(t *testing.T, series string, versions int) *rig {
	t.Helper()
	c, err := corpus.New(corpus.Options{
		Seed: 7, Scale: 0.4, SeriesFilter: []string{series}, MaxVersions: versions,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		corpus:   c,
		docker:   registry.New(),
		gear:     gearregistry.New(gearregistry.Options{Compress: true}),
		slackSrv: slacker.NewServer(),
		series:   series,
	}
	conv, err := convert.New(convert.Options{IndexPrefix: "gear/"})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < versions; v++ {
		img, err := c.Image(series, v)
		if err != nil {
			t.Fatal(err)
		}
		// Docker baseline needs the original image under its own ref;
		// the Gear index image is stored under "gear/<series>".
		if _, err := registry.Push(r.docker, img); err != nil {
			t.Fatal(err)
		}
		res, err := conv.Convert(img)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := convert.Publish(res, r.docker, r.gear); err != nil {
			t.Fatal(err)
		}
		bi, err := slacker.FromImage(img, slacker.DefaultBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		r.slackSrv.Put(bi)
		r.numImages++
	}
	return r
}

func (r *rig) newDaemon(t *testing.T, mbps float64) *Daemon {
	t.Helper()
	// The corpus is ~1/1000 of the paper's byte scale; scale the link
	// down by the same factor so deployment times keep the paper's shape.
	d, err := NewDaemon(r.docker, r.gear, Options{Link: netsim.DefaultLAN().WithBandwidth(mbps / 1000)})
	if err != nil {
		t.Fatal(err)
	}
	d.ConfigureSlacker(r.slackSrv)
	return d
}

func (r *rig) access(t *testing.T, version int) []string {
	t.Helper()
	items, err := r.corpus.NecessarySet(r.series, version)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(items))
	for i, it := range items {
		paths[i] = it.Path
	}
	return paths
}

func TestDockerDeploy(t *testing.T) {
	r := buildRig(t, "nginx", 2)
	d := r.newDaemon(t, 904)
	dep, err := d.DeployDocker("nginx", "v01", r.access(t, 0), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Pull.Bytes <= 0 || dep.Pull.Time <= 0 {
		t.Errorf("pull = %+v", dep.Pull)
	}
	if dep.Run.Bytes != 0 {
		t.Errorf("docker run fetched %d bytes; everything should be local", dep.Run.Bytes)
	}
	if dep.Run.Time < 100*time.Millisecond {
		t.Errorf("run time %v < compute", dep.Run.Time)
	}
	data, cost, err := dep.Read(r.access(t, 0)[0])
	if err != nil || len(data) == 0 || cost <= 0 {
		t.Errorf("Read = %d bytes, %v, %v", len(data), cost, err)
	}
}

func TestGearDeployPullsOnlyIndex(t *testing.T) {
	r := buildRig(t, "nginx", 2)
	d := r.newDaemon(t, 904)
	gearDep, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d2 := r.newDaemon(t, 904)
	dockerDep, err := d2.DeployDocker("nginx", "v01", r.access(t, 0), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if gearDep.Pull.Bytes >= dockerDep.Pull.Bytes/3 {
		t.Errorf("gear pull %d bytes not much smaller than docker pull %d",
			gearDep.Pull.Bytes, dockerDep.Pull.Bytes)
	}
	if gearDep.Run.Bytes == 0 {
		t.Error("gear run fetched nothing; lazy faults expected")
	}
	total := gearDep.Pull.Bytes + gearDep.Run.Bytes
	if total >= dockerDep.Pull.Bytes {
		t.Errorf("gear total transfer %d not below docker %d", total, dockerDep.Pull.Bytes)
	}
	// Pull phase shorter, run phase longer — the Fig 9 shape.
	if gearDep.Pull.Time >= dockerDep.Pull.Time {
		t.Errorf("gear pull %v not shorter than docker %v", gearDep.Pull.Time, dockerDep.Pull.Time)
	}
	if gearDep.Run.Time <= dockerDep.Run.Time {
		t.Errorf("gear run %v not longer than docker %v", gearDep.Run.Time, dockerDep.Run.Time)
	}
}

func TestGearWarmCacheFasterThanCold(t *testing.T) {
	r := buildRig(t, "redis", 3)
	d := r.newDaemon(t, 100)
	cold, err := d.DeployGear("gear/redis", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same-series next version with warm cache.
	warm, err := d.DeployGear("gear/redis", "v02", r.access(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Run.Bytes >= cold.Run.Bytes {
		t.Errorf("warm deploy fetched %d bytes, cold fetched %d; cache ineffective",
			warm.Run.Bytes, cold.Run.Bytes)
	}

	// Cold-cache control: clear between deploys.
	d2 := r.newDaemon(t, 100)
	if _, err := d2.DeployGear("gear/redis", "v01", r.access(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	d2.ClearGearCache()
	cold2, err := d2.DeployGear("gear/redis", "v02", r.access(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Run.Bytes >= cold2.Run.Bytes {
		t.Errorf("warm %d bytes vs cleared-cache %d bytes", warm.Run.Bytes, cold2.Run.Bytes)
	}
}

func TestRedeploySameImageIsLocal(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d := r.newDaemon(t, 904)
	if _, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0); err != nil {
		t.Fatal(err)
	}
	second, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Pull.Bytes != 0 || second.Run.Bytes != 0 {
		t.Errorf("second deploy transferred pull=%d run=%d bytes", second.Pull.Bytes, second.Run.Bytes)
	}
}

func TestSlackerDeploy(t *testing.T) {
	r := buildRig(t, "tomcat", 2)
	d := r.newDaemon(t, 904)
	dep, err := d.DeploySlacker("tomcat", "v01", r.access(t, 0), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Pull.Bytes <= 0 {
		t.Error("slacker mount transferred nothing (metadata blocks expected)")
	}
	if dep.Run.Bytes == 0 {
		t.Error("slacker run paged nothing in")
	}
	// Block granularity: more run requests than Gear needs files.
	gearDep, err := d.DeployGear("gear/tomcat", "v01", r.access(t, 0), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Run.Requests <= gearDep.Run.Requests {
		t.Errorf("slacker requests %d not more than gear %d", dep.Run.Requests, gearDep.Run.Requests)
	}
}

func TestSlackerUnconfigured(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d, err := NewDaemon(r.docker, r.gear, Options{Link: netsim.DefaultLAN()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeploySlacker("nginx", "v01", nil, 0); !errors.Is(err, ErrNoSlacker) {
		t.Errorf("err = %v, want ErrNoSlacker", err)
	}
}

func TestBandwidthSensitivity(t *testing.T) {
	// Fig 9: Docker degrades with bandwidth much faster than Gear.
	r := buildRig(t, "mysql", 1)
	ratioAt := func(mbps float64) float64 {
		d := r.newDaemon(t, mbps)
		docker, err := d.DeployDocker("mysql", "v01", r.access(t, 0), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		d2 := r.newDaemon(t, mbps)
		gear, err := d2.DeployGear("gear/mysql", "v01", r.access(t, 0), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return float64(docker.Total()) / float64(gear.Total())
	}
	fast := ratioAt(904)
	slow := ratioAt(5)
	if fast < 1.0 {
		t.Errorf("gear slower than docker even at 904 Mbps: ratio %.2f", fast)
	}
	if slow <= fast {
		t.Errorf("gear advantage at 5 Mbps (%.2f) not larger than at 904 Mbps (%.2f)", slow, fast)
	}
}

func TestDockerLayerSharingAcrossVersions(t *testing.T) {
	// Fig 10: later Docker deploys of a series reuse shared layers.
	r := buildRig(t, "postgres", 6)
	d := r.newDaemon(t, 904)
	v1, err := d.DeployDocker("postgres", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := d.DeployDocker("postgres", "v02", r.access(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Pull.Bytes >= v1.Pull.Bytes {
		t.Errorf("v2 pull %d >= v1 pull %d; layer sharing broken", v2.Pull.Bytes, v1.Pull.Bytes)
	}
}

func TestDestroy(t *testing.T) {
	r := buildRig(t, "httpd", 1)
	d := r.newDaemon(t, 904)
	docker, err := d.DeployDocker("httpd", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	gear, err := d.DeployGear("gear/httpd", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	dockerDestroy, err := docker.Destroy()
	if err != nil {
		t.Fatal(err)
	}
	gearDestroy, err := gear.Destroy()
	if err != nil {
		t.Fatal(err)
	}
	// Fig 11b: Gear destroys faster (fewer cached inodes).
	if gearDestroy >= dockerDestroy {
		t.Errorf("gear destroy %v not faster than docker %v", gearDestroy, dockerDestroy)
	}
	if _, err := gear.Destroy(); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("double destroy err = %v", err)
	}
	if _, _, err := gear.Read("/any"); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("read after destroy err = %v", err)
	}
}

func TestWriteGoesToWritableLayer(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d := r.newDaemon(t, 904)
	dep, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Write("/no/dir/out", []byte("result")); err == nil {
		t.Error("write without parent dir should fail")
	}
	if err := dep.Write("/opt/nginx/out", []byte("result")); err != nil {
		t.Fatal(err)
	}
	data, _, err := dep.Read("/opt/nginx/out")
	if err != nil || string(data) != "result" {
		t.Errorf("read back = %q, %v", data, err)
	}
	slackerDep, err := d.DeploySlacker("nginx", "v01", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := slackerDep.Write("/x", nil); err == nil {
		t.Error("slacker write should be rejected by this model")
	}
}

func TestModeString(t *testing.T) {
	if ModeDocker.String() != "docker" || ModeGear.String() != "gear" ||
		ModeSlacker.String() != "slacker" || Mode(9).String() != "Mode(9)" {
		t.Error("mode names wrong")
	}
}

func TestDeployMissingImage(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d := r.newDaemon(t, 904)
	if _, err := d.DeployDocker("ghost-img", "v01", nil, 0); err == nil {
		t.Error("missing image deployed")
	}
	if _, err := d.DeployGear("ghost-img", "v01", nil, 0); err == nil {
		t.Error("missing gear image deployed")
	}
}

func TestCommitAndRedeploy(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d := r.newDaemon(t, 904)
	dep, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Write("/opt/nginx/custom.conf", []byte("worker_processes 4;")); err != nil {
		t.Fatal(err)
	}
	ref, uploaded, err := dep.Commit("gear/nginx-custom", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if ref != "gear/nginx-custom:v1" || uploaded <= 0 {
		t.Errorf("commit = %q, %d bytes", ref, uploaded)
	}
	// A second daemon (another host) deploys the committed image.
	d2 := r.newDaemon(t, 904)
	dep2, err := d2.DeployGear("gear/nginx-custom", "v1", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dep2.Read("/opt/nginx/custom.conf")
	if err != nil || string(data) != "worker_processes 4;" {
		t.Errorf("committed file = %q, %v", data, err)
	}
	// Docker-mode containers cannot commit in this model.
	dockerDep, err := d.DeployDocker("nginx", "v01", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dockerDep.Commit("x", "y"); err == nil {
		t.Error("docker commit accepted")
	}
	// Closed containers cannot commit.
	if _, err := dep.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dep.Commit("a", "b"); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("err = %v, want ErrNotDeployed", err)
	}
}

var errDisk = errors.New("disk full")

// failingUploads is a Gear registry whose disk is full: every verb works
// but Upload.
type failingUploads struct{ gearregistry.Store }

func (failingUploads) Upload(hashing.Fingerprint, []byte) error { return errDisk }

// A commit that could not store its new Gear files publishes no index
// naming them (the mirror of convert's TestFailedPushPublishesNoIndex).
func TestFailedCommitPublishesNoIndex(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d, err := NewDaemon(r.docker, failingUploads{r.gear}, Options{Link: netsim.DefaultLAN()})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Write("/opt/nginx/custom.conf", []byte("worker_processes 4;")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dep.Commit("gear/nginx-custom", "v1"); !errors.Is(err, errDisk) {
		t.Errorf("commit err = %v, want it to wrap errDisk", err)
	}
	if _, err := registry.Pull(r.docker, "gear/nginx-custom", "v1"); !errors.Is(err, registry.ErrManifestNotFound) {
		t.Errorf("after the failed commit, pulling the index: err = %v, want ErrManifestNotFound", err)
	}
}

func TestRequestOverheadChargedPerObject(t *testing.T) {
	// Two daemons, one with huge per-request overhead: same payload, more
	// wire bytes and time for the many-object Gear fetch path.
	r := buildRig(t, "redis", 1)
	cheap, err := NewDaemon(r.docker, r.gear, Options{
		Link: netsim.DefaultLAN().WithBandwidth(0.1), GearRequestBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	costly, err := NewDaemon(r.docker, r.gear, Options{
		Link: netsim.DefaultLAN().WithBandwidth(0.1), GearRequestBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	a, err := cheap.DeployGear("gear/redis", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := costly.DeployGear("gear/redis", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Run.Time <= a.Run.Time {
		t.Errorf("overhead bytes did not slow the run phase: %v vs %v", b.Run.Time, a.Run.Time)
	}
}

func TestTraceRecordsAccessTimeline(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d, err := NewDaemon(r.docker, r.gear, Options{
		Link: netsim.DefaultLAN().WithBandwidth(0.9), Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	access := r.access(t, 0)
	dep, err := d.DeployGear("gear/nginx", "v01", access, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Events) != len(access) {
		t.Fatalf("events = %d, want %d", len(dep.Events), len(access))
	}
	var remoteEvents int
	var remoteBytes int64
	for _, e := range dep.Events {
		if e.Cost <= 0 {
			t.Errorf("%s: non-positive cost", e.Path)
		}
		if e.RemoteBytes > 0 {
			remoteEvents++
			remoteBytes += e.RemoteBytes
		}
	}
	if remoteEvents == 0 {
		t.Error("no remote events traced on a cold deploy")
	}
	if remoteBytes != dep.Run.Bytes {
		t.Errorf("traced bytes %d != run phase bytes %d", remoteBytes, dep.Run.Bytes)
	}
	// Untraced deploys carry no events.
	d2, err := NewDaemon(r.docker, r.gear, Options{Link: netsim.DefaultLAN()})
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := d2.DeployGear("gear/nginx", "v01", access, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dep2.Events != nil {
		t.Error("events recorded without Trace")
	}
}

// TestTraceSpansAccountForAllWANBytes: every deploy mode attributes
// 100% of the WAN bytes netsim reports to phase spans — Trace() is a
// complete accounting, not a sample. The warm Gear deploy additionally
// splits the traffic into demand (pull) and prefetch classes.
func TestTraceSpansAccountForAllWANBytes(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	lib := prefetch.NewLibrary()
	newDaemon := func() *Daemon {
		d, err := NewDaemon(r.docker, r.gear, Options{
			Link:     netsim.DefaultLAN().WithBandwidth(20.0 / 1000),
			Profiles: lib,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.ConfigureSlacker(r.slackSrv)
		return d
	}
	spanBytes := func(dep *Deployment) int64 {
		var sum int64
		for _, sp := range dep.Trace() {
			sum += sp.Bytes
		}
		return sum
	}

	deploys := []struct {
		mode   string
		deploy func(d *Daemon) (*Deployment, error)
	}{
		{"docker", func(d *Daemon) (*Deployment, error) {
			return d.DeployDocker("nginx", "v01", r.access(t, 0), 0)
		}},
		{"gear-cold", func(d *Daemon) (*Deployment, error) {
			return d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
		}},
		{"gear-warm", func(d *Daemon) (*Deployment, error) {
			return d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
		}},
		{"slacker", func(d *Daemon) (*Deployment, error) {
			return d.DeploySlacker("nginx", "v01", r.access(t, 0), 0)
		}},
	}
	for _, tc := range deploys {
		d := newDaemon()
		dep, err := tc.deploy(d)
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		wan := d.Link().Stats()
		if wan.Bytes == 0 {
			t.Fatalf("%s: deploy moved no WAN bytes", tc.mode)
		}
		if got := spanBytes(dep); got != wan.Bytes {
			t.Errorf("%s: trace spans carry %d bytes, netsim WAN link reports %d",
				tc.mode, got, wan.Bytes)
		}
		// The daemon ring holds the same spans (plus the store's per-fetch
		// spans for Gear modes), so the phase spans must appear there too.
		var ringPhase int
		for _, sp := range d.TraceRing().Snapshot() {
			if sp.Op == "deploy.pull" || sp.Op == "deploy.prefetch" || sp.Op == "deploy.run" {
				ringPhase++
			}
		}
		if ringPhase != len(dep.Trace()) {
			t.Errorf("%s: ring holds %d phase spans, deployment holds %d",
				tc.mode, ringPhase, len(dep.Trace()))
		}
	}

	// The warm Gear deploy above replayed a profile: its trace must carry
	// a prefetch-class span, and classes must cover the byte total.
	d := newDaemon()
	warm, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	var demand, prefetched int64
	for _, sp := range warm.Trace() {
		switch sp.Class {
		case "prefetch":
			prefetched += sp.Bytes
		case "demand":
			demand += sp.Bytes
		default:
			t.Errorf("span %s has unknown class %q", sp.Op, sp.Class)
		}
	}
	if prefetched == 0 {
		t.Error("warm deploy trace has no prefetch-class bytes")
	}
	if wan := d.Link().Stats(); demand+prefetched != wan.Bytes {
		t.Errorf("class split %d+%d != WAN bytes %d", demand, prefetched, wan.Bytes)
	}
}

// TestDemandStallIsPricedTime: a cold, serial Gear deploy's demand stall
// is the time netsim priced for its faults, whichever way it is read. The
// store's stall counter, the sum of its stall histogram and the daemon
// ring's fault spans each come to Deployment.DemandStall exactly.
func TestDemandStallIsPricedTime(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d := r.newDaemon(t, 20)
	before := d.Snapshot()
	dep, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if dep.DemandStall <= 0 || dep.DemandMisses == 0 {
		t.Fatalf("cold deploy: stall=%v misses=%d, want both positive", dep.DemandStall, dep.DemandMisses)
	}
	diff := d.Snapshot().Diff(before)
	var spans time.Duration
	for _, sp := range d.TraceRing().Snapshot() {
		if sp.Op == "fault" {
			spans += sp.Transfer
		}
	}
	for what, got := range map[string]time.Duration{
		"store.demand.stall.ns":         time.Duration(diff.Counter("store.demand.stall.ns")),
		"store.demand.stall (sum)":      time.Duration(diff.Histograms["store.demand.stall"].Sum),
		"fault spans' transfer (total)": spans,
	} {
		if got != dep.DemandStall {
			t.Errorf("%s = %v, want the deploy's demand stall %v", what, got, dep.DemandStall)
		}
	}
}

func TestGearProfileGuidedRedeploy(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	lib := prefetch.NewLibrary()
	newDaemon := func(lib *prefetch.Library) *Daemon {
		d, err := NewDaemon(r.docker, r.gear, Options{
			Link:     netsim.DefaultLAN().WithBandwidth(20.0 / 1000),
			Profiles: lib,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Cold deploy on host A: no profile yet, so no prefetch phase; the
	// run stalls on every fault, and the trace is persisted.
	cold, err := newDaemon(lib).DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Prefetch != (PhaseStats{}) {
		t.Errorf("cold deploy has a prefetch phase: %+v", cold.Prefetch)
	}
	if cold.DemandStall <= 0 || cold.DemandMisses == 0 {
		t.Errorf("cold deploy: stall=%v misses=%d, want both positive", cold.DemandStall, cold.DemandMisses)
	}
	if lib.Len() != 1 {
		t.Fatalf("profile library holds %d profiles after cold deploy, want 1", lib.Len())
	}

	// Warm redeploy on host B (fresh daemon, shared profile library):
	// the replay moves the bytes in the prefetch phase and the run never
	// touches the network.
	warm, err := newDaemon(lib).DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Prefetch.Bytes == 0 || warm.Prefetch.Time <= 0 {
		t.Errorf("warm deploy prefetch = %+v, want traffic", warm.Prefetch)
	}
	if warm.DemandStall != 0 || warm.DemandMisses != 0 || warm.Run.Bytes != 0 {
		t.Errorf("warm deploy stalled: stall=%v misses=%d runBytes=%d",
			warm.DemandStall, warm.DemandMisses, warm.Run.Bytes)
	}
	if warm.PrefetchHits == 0 || warm.PrefetchWasted != 0 {
		t.Errorf("warm deploy: hits=%d wasted=%d, want all replayed objects consumed",
			warm.PrefetchHits, warm.PrefetchWasted)
	}

	// The replay moves exactly the bytes the cold run faulted on: total
	// transfer is identical, it just happens before the container needs it.
	coldTotal := cold.Pull.Bytes + cold.Run.Bytes
	warmTotal := warm.Pull.Bytes + warm.Prefetch.Bytes + warm.Run.Bytes
	if warmTotal != coldTotal {
		t.Errorf("warm total bytes = %d, cold = %d; prefetch must not inflate traffic", warmTotal, coldTotal)
	}
}

// TestStaleProfileEntryDoesNotFailDeploy: a profile naming an object the
// registry no longer holds is speculation that cannot be served, not a
// deploy that cannot proceed. The rest of the profile still replays, the
// loss is counted, and only a direct caller of the replay sees the error.
func TestStaleProfileEntryDoesNotFailDeploy(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	access := r.access(t, 0)
	newDaemon := func(lib *prefetch.Library) *Daemon {
		d, err := NewDaemon(r.docker, r.gear, Options{Link: netsim.DefaultLAN(), Profiles: lib})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	recorded := prefetch.NewLibrary()
	if _, err := newDaemon(recorded).DeployGear("gear/nginx", "v01", access, 0); err != nil {
		t.Fatal(err)
	}
	p, err := recorded.Get("gear/nginx:v01")
	if err != nil || len(p.Entries) == 0 {
		t.Fatalf("cold deploy recorded no profile: %v", err)
	}
	lib := prefetch.NewLibrary()
	if err := lib.Put(&prefetch.Profile{ImageRef: p.ImageRef, Entries: []prefetch.Entry{
		{Fingerprint: hashing.FingerprintBytes([]byte("gone from the registry")), Size: 22},
		p.Entries[0],
	}}); err != nil {
		t.Fatal(err)
	}

	// A deploy that reads nothing installs the index and records nothing.
	direct := newDaemon(lib)
	if _, err := direct.DeployGear("gear/nginx", "v01", nil, 0); err != nil {
		t.Fatalf("deploy failed on a stale profile entry: %v", err)
	}
	direct.ClearGearCache()
	res, err := direct.GearStore().PrefetchProfile("gear/nginx:v01")
	if !errors.Is(err, gearregistry.ErrNotFound) || res.Failed != 1 || res.Objects != 1 {
		t.Errorf("direct replay = %+v, %v; want ErrNotFound with 1 failed, 1 fetched", res, err)
	}

	d := newDaemon(lib)
	dep, err := d.DeployGear("gear/nginx", "v01", access, 0)
	if err != nil {
		t.Fatalf("deploy failed on a stale profile entry: %v", err)
	}
	if dep.PrefetchErrors != 1 {
		t.Errorf("deployment reports %d prefetch errors, want 1", dep.PrefetchErrors)
	}
	if got := d.Snapshot().Counter("store.prefetch.errors"); got != 1 {
		t.Errorf("store.prefetch.errors = %d, want 1", got)
	}
	if dep.PrefetchHits != 1 || dep.Prefetch.Requests != 1 {
		t.Errorf("good entry: %d hits, %d replay requests, want 1/1", dep.PrefetchHits, dep.Prefetch.Requests)
	}

}

func TestGearNoProfileMatchesBaselineExactly(t *testing.T) {
	r := buildRig(t, "redis", 1)
	deploy := func(lib *prefetch.Library) *Deployment {
		d, err := NewDaemon(r.docker, r.gear, Options{
			Link:     netsim.DefaultLAN().WithBandwidth(20.0 / 1000),
			Profiles: lib,
		})
		if err != nil {
			t.Fatal(err)
		}
		dep, err := d.DeployGear("gear/redis", "v01", r.access(t, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	base := deploy(nil)                     // prefetch disabled entirely
	guided := deploy(prefetch.NewLibrary()) // enabled, but no profile exists yet
	if guided.Prefetch != (PhaseStats{}) {
		t.Errorf("empty library produced a prefetch phase: %+v", guided.Prefetch)
	}
	if base.Pull != guided.Pull || base.Run != guided.Run || base.Total() != guided.Total() {
		t.Errorf("no-profile deploy diverged from baseline:\nbase   pull=%+v run=%+v\nguided pull=%+v run=%+v",
			base.Pull, base.Run, guided.Pull, guided.Run)
	}
}

// A path a task reads twice caches one inode.
func TestUniqueCount(t *testing.T) {
	for _, tt := range []struct {
		list []string
		want int
	}{
		{nil, 0},
		{[]string{"/a"}, 1},
		{[]string{"/a", "/b", "/a", "/c", "/b", "/a"}, 3},
		{[]string{"/a", "/a", "/a"}, 1},
	} {
		if got := uniqueCount(tt.list); got != tt.want {
			t.Errorf("uniqueCount(%v) = %d, want %d", tt.list, got, tt.want)
		}
	}
	list := []string{"/usr/lib/a.so", "/usr/lib/b.so", "/usr/lib/a.so"}
	if n := testing.AllocsPerRun(10, func() { uniqueCount(list) }); n != 0 {
		t.Errorf("uniqueCount allocates %v times a call, want 0", n)
	}
}
