package dockersim

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/slacker"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/telemetry"
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

func buildRig(t testing.TB, series string, versions int) *rig {
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

func (r *rig) newDaemon(t testing.TB, mbps float64) *Daemon {
	t.Helper()
	// The corpus is ~1/1000 of the paper's byte scale; scale the link
	// down by the same factor so deployment times keep the paper's shape.
	return r.newDaemonWith(t, Options{Link: netsim.DefaultLAN().WithBandwidth(mbps / 1000)})
}

// newDaemonWith is newDaemon with opts; a zero Link is 20 Mbps.
func (r *rig) newDaemonWith(t testing.TB, opts Options) *Daemon {
	t.Helper()
	if opts.Link == (netsim.LinkConfig{}) {
		opts.Link = netsim.DefaultLAN().WithBandwidth(20.0 / 1000)
	}
	d, err := NewDaemon(r.docker, r.gear, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.ConfigureSlacker(r.slackSrv)
	return d
}

func (r *rig) access(t testing.TB, version int) []string {
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

// A Gear deploy's pull inflates its index layer once: the pass that
// sizes the layer and checks its CRC reads the index out of it too. The
// deploy reads no file, so the index layer is all there is to inflate.
func TestGearPullInflatesIndexOnce(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	m, err := r.docker.GetManifest("gear/nginx", "v01")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := r.docker.GetBlob(m.Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := tarstream.Gunzip(blob)
	if err != nil {
		t.Fatal(err)
	}
	d := r.newDaemon(t, 904)
	before := tarstream.InflatedBytes()
	if _, err := d.DeployGear("gear/nginx", "v01", nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := tarstream.InflatedBytes() - before; got != int64(len(raw)) {
		t.Errorf("the deploy inflated %d bytes, want the index layer's %d once", got, len(raw))
	}
}

// A Gear deploy runs SHA-256 over the compressed bytes of the layers it
// pulls, each once, to check them against the manifest, and over nothing
// else: not the inflated tar, which nothing reads a digest of.
func TestGearPullDigestsLayersOnce(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	m, err := r.docker.GetManifest("gear/nginx", "v01")
	if err != nil {
		t.Fatal(err)
	}
	d := r.newDaemon(t, 904)
	before := hashing.DigestedBytes()
	if _, err := d.DeployGear("gear/nginx", "v01", nil, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := hashing.DigestedBytes()-before, m.TotalSize(); got != want {
		t.Errorf("the deploy digested %d bytes, want its %d layer bytes once", got, want)
	}
}

// A cold Gear deploy verifies each content byte it fetches exactly
// once, and inflates the index layer's tar and those bytes (the rig's
// registry stores every Gear file gzipped) and nothing else.
func TestGearColdDeployHashesAndInflatesEachByteOnce(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	m, err := r.docker.GetManifest("gear/nginx", "v01")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := r.docker.GetBlob(m.Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := tarstream.Gunzip(blob)
	if err != nil {
		t.Fatal(err)
	}
	d := r.newDaemon(t, 904)
	access := r.access(t, 0)
	fingerprinted, inflated := hashing.FingerprintedBytes(), tarstream.InflatedBytes()
	if _, err := d.DeployGear("gear/nginx", "v01", access, 0); err != nil {
		t.Fatal(err)
	}
	fingerprinted, inflated = hashing.FingerprintedBytes()-fingerprinted, tarstream.InflatedBytes()-inflated
	snap := d.Snapshot()
	fetched := snap.Gauge("cache.bytes")
	if fetched == 0 || snap.Counter("cache.evictions") != 0 {
		t.Fatalf("the deploy cached %d bytes with %d evictions, want every fetched file held",
			fetched, snap.Counter("cache.evictions"))
	}
	if fingerprinted != fetched {
		t.Errorf("the deploy fingerprinted %d bytes, want its %d fetched bytes once", fingerprinted, fetched)
	}
	if want := int64(len(raw)) + fetched; inflated != want {
		t.Errorf("the deploy inflated %d bytes, want the index layer's %d and the %d fetched, once each",
			inflated, len(raw), fetched)
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

// TestTraceRecordsAccessTimeline: a cold Gear deploy's tree places its
// accesses in the run: one deploy.fault per access that moved bytes, with
// its path, time and bytes, and one deploy.local counting every access.
// A warm deploy, every access a hit, records no fault but still counts
// every access.
func TestTraceRecordsAccessTimeline(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d, err := NewDaemon(r.docker, r.gear, Options{Link: netsim.DefaultLAN().WithBandwidth(0.9)})
	if err != nil {
		t.Fatal(err)
	}
	access := r.access(t, 0)
	for _, tc := range []struct {
		name   string
		faults bool
	}{{"cold", true}, {"warm", false}} {
		dep, err := d.DeployGear("gear/nginx", "v01", access, 0)
		if err != nil {
			t.Fatal(err)
		}
		var faults, accesses int
		var faultBytes int64
		for _, s := range dep.Trace() {
			switch s.Op {
			case "deploy.fault":
				faults++
				faultBytes += s.Bytes
				if s.Dur <= 0 || s.Bytes <= 0 {
					t.Errorf("%s: fault on %s took %v for %d B, want both positive", tc.name, s.Ref, s.Dur, s.Bytes)
				}
				if !slices.Contains(access, s.Ref) {
					t.Errorf("%s: fault on %q, a path the run never accessed", tc.name, s.Ref)
				}
			case "deploy.local":
				accesses += s.Objects
			}
		}
		if accesses != len(access) {
			t.Errorf("%s: deploy.local counts %d accesses, want %d", tc.name, accesses, len(access))
		}
		if got := faults > 0; got != tc.faults {
			t.Errorf("%s: %d deploy.fault spans, want faults: %v", tc.name, faults, tc.faults)
		}
		if faultBytes != dep.Run.Bytes {
			t.Errorf("%s: faults carry %d B, run phase %d B", tc.name, faultBytes, dep.Run.Bytes)
		}
	}
}

// TestTraceSpansAccountForAllWANBytes: every deploy mode attributes
// 100% of the WAN bytes netsim reports to its span tree — Trace() is a
// complete accounting, not a sample — and the daemon's ring holds the
// tree's phase spans. A deploy that replays a profile splits the traffic
// into demand and prefetch classes that cover the byte total.
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
	// selfBytes splits a tree's bytes by class, each span counting its
	// own share: its Bytes less its children's.
	selfBytes := func(dep *Deployment) map[string]int64 {
		tree := dep.Trace()
		class := make(map[int64]string, len(tree))
		for _, s := range tree {
			class[s.ID] = s.Class
		}
		by := map[string]int64{}
		for _, s := range tree {
			by[s.Class] += s.Bytes
			if s.Parent != 0 {
				by[class[s.Parent]] -= s.Bytes
			}
		}
		return by
	}
	isPhase := func(op string) bool {
		return op == "deploy.pull" || op == "deploy.prefetch" || op == "deploy.run"
	}

	for _, tc := range []struct {
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
	} {
		d := newDaemon()
		dep, err := tc.deploy(d)
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		wan := d.Link().Stats()
		if wan.Bytes == 0 {
			t.Fatalf("%s: deploy moved no WAN bytes", tc.mode)
		}
		var sum int64
		for _, b := range selfBytes(dep) {
			sum += b
		}
		if sum != wan.Bytes {
			t.Errorf("%s: trace spans carry %d bytes, netsim WAN link reports %d", tc.mode, sum, wan.Bytes)
		}
		var ringPhase, treePhase int
		for _, s := range d.ring.Snapshot() {
			if isPhase(s.Op) {
				ringPhase++
			}
		}
		for _, s := range dep.Trace() {
			if isPhase(s.Op) {
				treePhase++
			}
		}
		if ringPhase != treePhase {
			t.Errorf("%s: ring holds %d phase spans, deployment holds %d", tc.mode, ringPhase, treePhase)
		}
	}

	// The gear deploys above recorded a profile: this deploy replays it,
	// so its tree carries prefetch-class bytes, and classes cover the total.
	d := newDaemon()
	warm, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	by := selfBytes(warm)
	for class, b := range by {
		if b != 0 && class != telemetry.ClassDemand && class != telemetry.ClassPrefetch {
			t.Errorf("%d self bytes in unknown class %q", b, class)
		}
	}
	if by[telemetry.ClassPrefetch] == 0 {
		t.Error("warm deploy trace has no prefetch-class bytes")
	}
	if wan := d.Link().Stats(); by[telemetry.ClassDemand]+by[telemetry.ClassPrefetch] != wan.Bytes {
		t.Errorf("class split %d+%d != WAN bytes %d", by[telemetry.ClassDemand], by[telemetry.ClassPrefetch], wan.Bytes)
	}
}

// checkTree holds one deployment's span tree to its accounting: IDs are
// unique and every Parent resolves; no span's children outlast it or
// out-carry its bytes; the root has no self share and lasts Total(); the
// self bytes sum to the WAN bytes netsim charged the deploy (wan), and
// the self time of the spans that priced link time (a phase's own share
// and every fault) to the time the links charged it (linkTime). It
// returns the deploy.fault spans.
func checkTree(t *testing.T, name string, dep *Deployment, wan int64, linkTime time.Duration) []telemetry.Span {
	t.Helper()
	tree := dep.Trace()
	if len(tree) == 0 || tree[0].Op != "deploy" || tree[0].Parent != 0 {
		t.Fatalf("%s: tree does not start at a deploy root: %+v", name, tree)
	}
	at := make(map[int64]int, len(tree))
	for i, s := range tree {
		if _, dup := at[s.ID]; dup || s.ID == 0 {
			t.Errorf("%s: span %d (%s) has ID %d, not unique", name, i, s.Op, s.ID)
		}
		at[s.ID] = i
	}
	self := make([]telemetry.Span, len(tree))
	copy(self, tree)
	var faults []telemetry.Span
	for i, s := range tree[1:] {
		p, ok := at[s.Parent]
		if !ok || p > i {
			t.Fatalf("%s: %s's parent %d does not resolve to an earlier span", name, s.Op, s.Parent)
		}
		self[p].Dur -= s.Dur
		self[p].Bytes -= s.Bytes
		if s.Op == "deploy.fault" {
			faults = append(faults, s)
		}
	}
	var selfTime, onLinks time.Duration
	var selfBytes int64
	for _, s := range self {
		if s.Dur < 0 || s.Bytes < 0 {
			t.Errorf("%s: %s's children add up to more than it: self %v, %d B", name, s.Op, s.Dur, s.Bytes)
		}
		if s.Bytes > 0 && s.Class != telemetry.ClassDemand && s.Class != telemetry.ClassPrefetch {
			t.Errorf("%s: %s carries %d self bytes in class %q", name, s.Op, s.Bytes, s.Class)
		}
		selfTime += s.Dur
		selfBytes += s.Bytes
		switch s.Op {
		case "deploy.pull", "deploy.prefetch", "deploy.run", "deploy.fault":
			onLinks += s.Dur
		}
	}
	if self[0].Dur != 0 || self[0].Bytes != 0 {
		t.Errorf("%s: root has a self share of %v, %d B", name, self[0].Dur, self[0].Bytes)
	}
	if tree[0].Dur != dep.Total() || selfTime != dep.Total() {
		t.Errorf("%s: root %v, self times sum to %v; Total() = %v", name, tree[0].Dur, selfTime, dep.Total())
	}
	if selfBytes != wan {
		t.Errorf("%s: self bytes sum to %d, netsim's WAN link carried %d", name, selfBytes, wan)
	}
	if onLinks != linkTime {
		t.Errorf("%s: link spans' self time %v, the links charged %v", name, onLinks, linkTime)
	}
	return faults
}

// TestDeploymentTreeAccountsForAllTime: every way a deployment runs —
// Docker, Slacker, cold, warm and profile-guided Gear, the concurrent
// fetch engine, chunked files and peers — yields one span tree that
// accounts for all of its time and every WAN byte, to the nanosecond
// and the byte; and the daemon's ring holds its root and phase spans.
func TestDeploymentTreeAccountsForAllTime(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	access := r.access(t, 0)
	conv, err := convert.New(convert.Options{IndexPrefix: "gearc/", Chunking: index.FixedChunks(8 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	img, err := r.corpus.Image("nginx", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := conv.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := convert.Publish(res, r.docker, r.gear); err != nil {
		t.Fatal(err)
	}
	lib := prefetch.NewLibrary()
	if _, err := r.newDaemonWith(t, Options{Profiles: lib}).DeployGear("gear/nginx", "v01", access, 0); err != nil {
		t.Fatal(err)
	}
	warm := r.newDaemon(t, 20)
	if _, err := warm.DeployGear("gear/nginx", "v01", access, 0); err != nil {
		t.Fatal(err)
	}
	peers, _, _ := peerRig(t, r, 2, 20, 1000)
	if _, err := peers[0].DeployGear("gear/nginx", "v01", access, 0); err != nil {
		t.Fatal(err)
	}

	gear := func(ref string) func(d *Daemon) (*Deployment, error) {
		return func(d *Daemon) (*Deployment, error) { return d.DeployGear(ref, "v01", access, 50*time.Millisecond) }
	}
	for _, tc := range []struct {
		name   string
		d      *Daemon
		deploy func(d *Daemon) (*Deployment, error)
		faults bool
	}{
		{"docker", r.newDaemon(t, 20), func(d *Daemon) (*Deployment, error) {
			return d.DeployDocker("nginx", "v01", access, 50*time.Millisecond)
		}, false},
		{"slacker", r.newDaemon(t, 20), func(d *Daemon) (*Deployment, error) {
			return d.DeploySlacker("nginx", "v01", access, 50*time.Millisecond)
		}, true},
		{"gear-cold", r.newDaemon(t, 20), gear("gear/nginx"), true},
		{"gear-warm", warm, gear("gear/nginx"), false},
		{"gear-profile", r.newDaemonWith(t, Options{Profiles: lib}), gear("gear/nginx"), false},
		{"gear-workers", r.newDaemonWith(t, Options{FetchWorkers: 4}), gear("gear/nginx"), false},
		{"gear-chunked", r.newDaemon(t, 20), gear("gearc/nginx"), true},
		{"gear-peered", peers[1], gear("gear/nginx"), true},
	} {
		wan, lan := tc.d.Link().Stats(), tc.d.PeerLink().Stats()
		ringBefore := lastSeq(tc.d.ring)
		dep, err := tc.deploy(tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		linkTime := tc.d.Link().Stats().Elapsed - wan.Elapsed
		if tc.d.PeerLink() != tc.d.Link() {
			linkTime += tc.d.PeerLink().Stats().Elapsed - lan.Elapsed
		}
		faults := checkTree(t, tc.name, dep, tc.d.Link().Stats().Bytes-wan.Bytes, linkTime)
		if got := len(faults) > 0; got != tc.faults {
			t.Errorf("%s: %d deploy.fault spans, want faults: %v", tc.name, len(faults), tc.faults)
		}
		if tc.name == "gear-chunked" && !slices.ContainsFunc(faults, func(s telemetry.Span) bool { return s.Objects > 1 }) {
			t.Errorf("%s: no fault fetched more than one chunk", tc.name)
		}
		tree := dep.Trace()
		if tc.name == "gear-profile" && !slices.ContainsFunc(tree, func(s telemetry.Span) bool {
			return s.Op == "deploy.prefetch" && s.Class == telemetry.ClassPrefetch && s.Bytes > 0
		}) {
			t.Errorf("%s: no prefetch-class replay span moved bytes", tc.name)
		}
		// DemandStall is the run's network share: its faults and its own
		// time, the pre-fault window.
		run := tree[slices.IndexFunc(tree, func(s telemetry.Span) bool { return s.Op == "deploy.run" })]
		stall := run.Dur - childDur(tree, run.ID)
		for _, s := range faults {
			stall += s.Dur
		}
		if stall != dep.DemandStall {
			t.Errorf("%s: faults and the run's self time come to %v, DemandStall = %v", tc.name, stall, dep.DemandStall)
		}
		// The ring gets the root and the phases, never the run's children.
		var want []telemetry.Span
		for _, s := range tree {
			if s.Parent == 0 || s.Parent == tree[0].ID {
				want = append(want, s)
			}
		}
		var got []telemetry.Span
		for _, s := range tc.d.ring.Snapshot() {
			if s.Seq > ringBefore && strings.HasPrefix(s.Op, "deploy") {
				s.Seq = 0
				got = append(got, s)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: ring holds deployment spans %+v, want the root and phases %+v", tc.name, got, want)
		}
	}
}

// childDur adds up the Dur of parent's children.
func childDur(tree []telemetry.Span, parent int64) time.Duration {
	var sum time.Duration
	for _, s := range tree {
		if s.Parent == parent {
			sum += s.Dur
		}
	}
	return sum
}

// TestDemandStallIsPricedTime: a cold, serial Gear deploy's demand stall
// is the time netsim priced for its faults, whichever way it is read. The
// daemon's view — the tree's deploy.fault spans plus the run's own time —
// and the store's — its stall counter, the sum of its stall histogram and
// its fault spans in the ring — each come to Deployment.DemandStall
// exactly.
func TestDemandStallIsPricedTime(t *testing.T) {
	r := buildRig(t, "nginx", 1)
	d := r.newDaemon(t, 20)
	before := d.Snapshot()
	dep, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	diff := d.Snapshot().Diff(before)
	if misses := diff.Counter("store.demand.misses"); dep.DemandStall <= 0 || misses == 0 {
		t.Fatalf("cold deploy: stall=%v misses=%d, want both positive", dep.DemandStall, misses)
	}
	var storeSpans, treeSpans time.Duration
	for _, sp := range d.ring.Snapshot() {
		if sp.Op == "fault" {
			storeSpans += sp.Dur
		}
	}
	tree := dep.Trace()
	for _, sp := range tree {
		switch sp.Op {
		case "deploy.fault":
			treeSpans += sp.Dur
		case "deploy.run":
			treeSpans += sp.Dur - childDur(tree, sp.ID)
		}
	}
	for what, got := range map[string]time.Duration{
		"store.demand.stall.ns":           time.Duration(diff.Counter("store.demand.stall.ns")),
		"store.demand.stall (sum)":        time.Duration(diff.Histograms["store.demand.stall"].Sum),
		"store's fault spans (total)":     storeSpans,
		"tree's faults and the run's own": treeSpans,
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

	// deploy deploys on a fresh host and returns the store counters it
	// moved.
	deploy := func() (*Deployment, telemetry.Snapshot) {
		d := newDaemon(lib)
		dep, err := d.DeployGear("gear/nginx", "v01", r.access(t, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		return dep, d.Snapshot()
	}

	// Cold deploy on host A: no profile yet, so no prefetch phase; the
	// run stalls on every fault, and the trace is persisted.
	cold, coldStore := deploy()
	if cold.Prefetch != (PhaseStats{}) {
		t.Errorf("cold deploy has a prefetch phase: %+v", cold.Prefetch)
	}
	if misses := coldStore.Counter("store.demand.misses"); cold.DemandStall <= 0 || misses == 0 {
		t.Errorf("cold deploy: stall=%v misses=%d, want both positive", cold.DemandStall, misses)
	}
	if n := len(lib.List()); n != 1 {
		t.Fatalf("profile library holds %d profiles after cold deploy, want 1", n)
	}

	// Warm redeploy on host B (fresh daemon, shared profile library):
	// the replay moves the bytes in the prefetch phase and the run never
	// touches the network.
	warm, warmStore := deploy()
	if warm.Prefetch.Bytes == 0 || warm.Prefetch.Time <= 0 {
		t.Errorf("warm deploy prefetch = %+v, want traffic", warm.Prefetch)
	}
	if misses := warmStore.Counter("store.demand.misses"); warm.DemandStall != 0 || misses != 0 || warm.Run.Bytes != 0 {
		t.Errorf("warm deploy stalled: stall=%v misses=%d runBytes=%d",
			warm.DemandStall, misses, warm.Run.Bytes)
	}
	if hits, wasted := warmStore.Counter("store.prefetch.hits"), warmStore.Gauge("store.prefetch.wasted"); hits == 0 || wasted != 0 {
		t.Errorf("warm deploy: hits=%d wasted=%d, want all replayed objects consumed", hits, wasted)
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
	if hits := d.Snapshot().Counter("store.prefetch.hits"); hits != 1 || dep.Prefetch.Requests != 1 {
		t.Errorf("good entry: %d hits, %d replay requests, want 1/1", hits, dep.Prefetch.Requests)
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

// lastSeq is the sequence number of the newest span in ring, 0 for none:
// the spans recorded after it have greater ones.
func lastSeq(ring *telemetry.TraceRing) int64 {
	spans := ring.Snapshot()
	if len(spans) == 0 {
		return 0
	}
	return spans[len(spans)-1].Seq
}
