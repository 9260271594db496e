// Black-box tests of the public API: everything a downstream user does
// goes through these entry points.
package gear_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	gear "github.com/gear-image/gear"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
)

// buildApp authors a small application image through the public API.
func buildApp(t *testing.T, tag, payload string) *gear.Image {
	t.Helper()
	fs := gear.NewFS()
	if err := fs.MkdirAll("/app", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/app/bin", []byte(payload), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/app/conf", []byte("shared config"), 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := gear.SingleLayerImage("app", tag, fs, gear.ImageConfig{
		Entrypoint: []string{"/app/bin"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestPublicPipeline(t *testing.T) {
	img := buildApp(t, "v1", "binary-v1")

	conv, err := gear.NewConverter(gear.ConverterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conv.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	docker := gear.NewRegistry()
	files := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
	if _, _, err := gear.Publish(res, docker, files); err != nil {
		t.Fatal(err)
	}

	daemon, err := gear.NewDaemon(docker, files, gear.DaemonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := daemon.DeployGear("app", "v1", []string{"/app/bin"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, latency, err := dep.Read("/app/conf")
	if err != nil || string(data) != "shared config" || latency <= 0 {
		t.Errorf("Read = %q, %v, %v", data, latency, err)
	}
	if _, err := dep.Destroy(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicHTTPRoundTrip(t *testing.T) {
	dockerReg := gear.NewRegistry()
	fileReg := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
	dockerSrv := httptest.NewServer(gear.RegistryHandler(dockerReg))
	defer dockerSrv.Close()
	fileSrv := httptest.NewServer(gear.FileStoreHandler(fileReg))
	defer fileSrv.Close()

	dockerClient := gear.NewRegistryClient(dockerSrv.URL, dockerSrv.Client())
	fileClient := gear.NewFileStoreClient(fileSrv.URL, fileSrv.Client())

	img := buildApp(t, "v1", "binary-v1")
	if _, err := gear.PushImage(dockerClient, img); err != nil {
		t.Fatal(err)
	}
	conv, err := gear.NewConverter(gear.ConverterOptions{IndexPrefix: "gear/"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conv.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gear.Publish(res, dockerClient, fileClient); err != nil {
		t.Fatal(err)
	}

	// Both image forms are pullable; the Gear one decodes to an index.
	if _, err := gear.PullImage(dockerClient, "app", "v1"); err != nil {
		t.Fatal(err)
	}
	pulled, err := gear.PullImage(dockerClient, "gear/app", "v1")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := gear.IndexFromImage(pulled)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Lookup("/app/bin") == nil {
		t.Error("index missing entry")
	}

	// Deploy over HTTP end to end.
	daemon, err := gear.NewDaemon(dockerClient, fileClient, gear.DaemonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := daemon.DeployGear("gear/app", "v1", []string{"/app/bin"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dep.Read("/app/bin")
	if err != nil || string(data) != "binary-v1" {
		t.Errorf("Read = %q, %v", data, err)
	}
}

func TestPublicWorkloadAndDedup(t *testing.T) {
	w, err := gear.NewWorkload(gear.WorkloadOptions{
		Seed: 5, Scale: 0.15, SeriesFilter: []string{"redis"}, MaxVersions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	analyzer, err := gear.NewDedupAnalyzer(512)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 2; v++ {
		img, err := w.Image("redis", v)
		if err != nil {
			t.Fatal(err)
		}
		if err := analyzer.Add(img); err != nil {
			t.Fatal(err)
		}
	}
	reports := analyzer.Reports()
	if len(reports) != 5 || reports[0].Granularity != gear.DedupNone {
		t.Errorf("reports = %+v", reports)
	}
	// Sub-file CDC dedups at least as much raw data as file granularity.
	if reports[4].Granularity != gear.DedupCDC || reports[4].Objects == 0 ||
		reports[4].RawBytes > reports[2].RawBytes {
		t.Errorf("cdc row = %+v", reports[4])
	}
}

func TestPublicExperimentDispatch(t *testing.T) {
	ids := gear.ExperimentIDs()
	if len(ids) != 19 {
		t.Fatalf("ids = %v", ids)
	}
	if err := gear.RunExperiment("bogus", gear.QuickExperimentConfig(), io.Discard); err == nil {
		t.Error("bogus experiment accepted")
	}
	// Run the cheapest real experiment end to end through the facade.
	cfg := gear.QuickExperimentConfig()
	cfg.Scale = 0.1
	cfg.SeriesPerCategory = 1
	cfg.VersionsPerSeries = 2
	var buf bytes.Buffer
	if err := gear.RunExperiment("fig2", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "average") {
		t.Error("experiment report missing content")
	}
}

// buildModelApp authors an image whose payload file is large enough to
// chunk under every policy the tests use.
func buildModelApp(t *testing.T, size int) (*gear.Image, []byte) {
	t.Helper()
	fs := gear.NewFS()
	if err := fs.MkdirAll("/srv", 0o755); err != nil {
		t.Fatal(err)
	}
	model := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(model)
	if err := fs.WriteFile("/srv/model", model, 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := gear.SingleLayerImage("model", "v1", fs, gear.ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return img, model
}

// deployModel converts img under pol and deploys it on a fresh daemon.
func deployModel(t *testing.T, img *gear.Image, pol gear.ChunkPolicy, dopts gear.DaemonOptions) (*gear.Deployment, *gear.Daemon) {
	t.Helper()
	conv, err := gear.NewConverter(gear.ConverterOptions{Chunking: pol})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conv.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	docker := gear.NewRegistry()
	files := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
	if _, _, err := gear.Publish(res, docker, files); err != nil {
		t.Fatal(err)
	}
	daemon, err := gear.NewDaemon(docker, files, dopts)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := daemon.DeployGear("model", "v1", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return dep, daemon
}

func TestPublicChunkedLazyDeploy(t *testing.T) {
	const size = 256 << 10
	img, model := buildModelApp(t, size)
	const window = int64(64 << 10)
	dep, daemon := deployModel(t, img, gear.CDCChunks(8<<10), gear.DaemonOptions{
		ChunkWindowBytes: window, ChunkReadahead: 1,
	})

	// The index carries a chunk table for the big file.
	ix, err := daemon.GearStore().Index("model:v1")
	if err != nil {
		t.Fatal(err)
	}
	entry := ix.Lookup("/srv/model")
	if entry == nil || len(entry.Chunks) < 2 {
		t.Fatalf("entry = %+v", entry)
	}

	// A partial read faults only the overlapping chunks.
	const off, n = int64(100_003), int64(8 << 10)
	slice, stall, err := dep.ReadAt("/srv/model", off, n)
	if err != nil || stall <= 0 {
		t.Fatalf("ReadAt: %v (stall %v)", err, stall)
	}
	if !bytes.Equal(slice, model[off:off+n]) {
		t.Error("partial read bytes differ")
	}
	if moved := daemon.Snapshot().Counter("store.remote.bytes"); moved >= size {
		t.Errorf("partial read moved the whole file: %d bytes", moved)
	}

	// A full read completes the file within the window budget.
	full, _, err := dep.Read("/srv/model")
	if err != nil || !bytes.Equal(full, model) {
		t.Fatalf("full read parity: %v", err)
	}
	if peak := daemon.GearStore().ChunkWindowPeak(); peak <= 0 || peak > window {
		t.Errorf("window peak = %d, budget %d", peak, window)
	}
}

func TestPublicChunkingOffDegenerates(t *testing.T) {
	img, model := buildModelApp(t, 96<<10)
	plain, _ := deployModel(t, img, gear.ChunkPolicy{}, gear.DaemonOptions{})
	chunked, _ := deployModel(t, img, gear.CDCChunks(8<<10), gear.DaemonOptions{})

	const off, n = int64(33_333), int64(4 << 10)
	a, _, err := plain.ReadAt("/srv/model", off, n)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := chunked.ReadAt("/srv/model", off, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || !bytes.Equal(a, model[off:off+n]) {
		t.Error("chunked and whole-file reads differ")
	}
	fa, _, err := plain.Read("/srv/model")
	if err != nil {
		t.Fatal(err)
	}
	fb, _, err := chunked.Read("/srv/model")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa, fb) || !bytes.Equal(fa, model) {
		t.Error("full reads differ across chunking modes")
	}
}

func TestPublicRangeVerb(t *testing.T) {
	data := make([]byte, 40<<10)
	rand.New(rand.NewSource(11)).Read(data)
	fp := gear.FingerprintBytes(data)

	files := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
	if err := files.Upload(fp, data); err != nil {
		t.Fatal(err)
	}
	var rs gear.GearRangeStore = files
	payload, wire, err := rs.DownloadRange(fp, 1000, 512)
	if err != nil || !bytes.Equal(payload, data[1000:1512]) || wire <= 0 {
		t.Fatalf("DownloadRange = %d bytes, wire %d, %v", len(payload), wire, err)
	}

	// The same verb over HTTP.
	srv := httptest.NewServer(gear.FileStoreHandler(files))
	defer srv.Close()
	payload, _, err = gear.NewFileStoreClient(srv.URL, nil).DownloadRange(fp, 2048, 100)
	if err != nil || !bytes.Equal(payload, data[2048:2148]) {
		t.Fatalf("HTTP DownloadRange: %v", err)
	}
}

// TestGearStoreContract runs one script of the six GearStore verbs
// against every store there is: single is batch of one, whole is range
// of all, and a request that cannot succeed is refused with the same
// typed error everywhere.
func TestGearStoreContract(t *testing.T) {
	serve := func(compress bool) gear.GearStore {
		srv := httptest.NewServer(gear.FileStoreHandler(gear.NewFileStore(gear.FileStoreOptions{Compress: compress})))
		t.Cleanup(srv.Close)
		return gear.NewFileStoreClient(srv.URL, srv.Client())
	}
	cluster, err := gear.NewShardCluster(gear.ShardClusterOptions{
		Shards: []string{"s1", "s2", "s3"}, Replication: 2, Compress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name  string
		store gear.GearStore
	}{
		{name: "FileStore raw", store: gear.NewFileStore(gear.FileStoreOptions{})},
		{name: "FileStore compressed", store: gear.NewFileStore(gear.FileStoreOptions{Compress: true})},
		{name: "FileStoreClient raw", store: serve(false)},
		{name: "FileStoreClient compressed", store: serve(true)},
		{name: "ShardCluster 3x2", store: cluster},
	}

	data := make([]byte, 10000)
	rand.New(rand.NewSource(20)).Read(data)
	fp, size := gear.FingerprintBytes(data), int64(len(data))
	absent := gear.FingerprintBytes([]byte("absent"))
	const bad = gear.Fingerprint("zz")
	one := func(fp gear.Fingerprint) []gear.Fingerprint { return []gear.Fingerprint{fp} }

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := r.store
			if err := s.Upload(fp, data); err != nil {
				t.Fatal(err)
			}

			// Single = batch of one.
			for _, q := range []struct {
				fp   gear.Fingerprint
				want bool
			}{{fp, true}, {absent, false}} {
				present, err := s.Query(q.fp)
				batch, berr := s.QueryBatch(one(q.fp))
				if err != nil || berr != nil || present != q.want || len(batch) != 1 || batch[0] != present {
					t.Errorf("Query(%s) = %v, %v; QueryBatch = %v, %v; want %v", q.fp, present, err, batch, berr, q.want)
				}
			}
			whole, _, err := s.Download(fp)
			if err != nil || !bytes.Equal(whole, data) {
				t.Fatalf("Download: %d bytes, %v", len(whole), err)
			}
			if batch, _, err := s.DownloadBatch(one(fp)); err != nil || len(batch) != 1 || !bytes.Equal(batch[0], whole) {
				t.Errorf("DownloadBatch of one: %d payloads, %v", len(batch), err)
			}
			// Whole = range of all.
			if all, _, err := s.DownloadRange(fp, 0, size); err != nil || !bytes.Equal(all, whole) {
				t.Errorf("DownloadRange(0, size): %d bytes, %v", len(all), err)
			}
			if part, _, err := s.DownloadRange(fp, 1234, 4321); err != nil || !bytes.Equal(part, data[1234:1234+4321]) {
				t.Errorf("DownloadRange(1234, 4321): %d bytes, %v", len(part), err)
			}
			// An empty batch asks nothing and fails nothing.
			if present, err := s.QueryBatch(nil); err != nil || len(present) != 0 {
				t.Errorf("empty QueryBatch = %v, %v", present, err)
			}
			if payloads, _, err := s.DownloadBatch(nil); err != nil || len(payloads) != 0 {
				t.Errorf("empty DownloadBatch = %v, %v", payloads, err)
			}

			// What cannot succeed is refused, typed.
			refused := func(what string, err, want error) {
				t.Helper()
				if !errors.Is(err, want) {
					t.Errorf("%s: err = %v, want %v", what, err, want)
				}
			}
			_, _, err = s.Download(absent)
			refused("Download(absent)", err, gearregistry.ErrNotFound)
			_, _, err = s.DownloadBatch([]gear.Fingerprint{fp, absent})
			refused("DownloadBatch(absent)", err, gearregistry.ErrNotFound)
			_, _, err = s.DownloadRange(absent, 0, 1)
			refused("DownloadRange(absent)", err, gearregistry.ErrNotFound)

			_, err = s.Query(bad)
			refused("Query(malformed)", err, hashing.ErrMalformed)
			_, err = s.QueryBatch([]gear.Fingerprint{fp, bad})
			refused("QueryBatch(malformed)", err, hashing.ErrMalformed)
			refused("Upload(malformed)", s.Upload(bad, data), hashing.ErrMalformed)
			_, _, err = s.Download(bad)
			refused("Download(malformed)", err, hashing.ErrMalformed)
			_, _, err = s.DownloadBatch([]gear.Fingerprint{fp, bad})
			refused("DownloadBatch(malformed)", err, hashing.ErrMalformed)
			_, _, err = s.DownloadRange(bad, 0, 1)
			refused("DownloadRange(malformed)", err, hashing.ErrMalformed)

			// The last two overflow off+n.
			for _, rg := range []struct{ off, n int64 }{
				{size, 1}, {0, size + 1}, {size - 1, 2}, {0, 0}, {math.MaxInt64, 1}, {2, math.MaxInt64},
			} {
				_, _, err := s.DownloadRange(fp, rg.off, rg.n)
				refused("DownloadRange out of range", err, gearregistry.ErrBadRange)
			}
		})
	}
}

func TestPublicShardCluster(t *testing.T) {
	cluster, err := gear.NewShardCluster(gear.ShardClusterOptions{
		Shards: []string{"s1", "s2", "s3"}, Replication: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gear.NewShardCluster(gear.ShardClusterOptions{}); err == nil {
		t.Error("empty cluster accepted")
	}

	// The cluster drops into the daemon wherever a GearStore goes.
	img := buildApp(t, "v1", "binary-v1")
	conv, err := gear.NewConverter(gear.ConverterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conv.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	docker := gear.NewRegistry()
	if _, _, err := gear.Publish(res, docker, cluster); err != nil {
		t.Fatal(err)
	}
	daemon, err := gear.NewDaemon(docker, cluster, gear.DaemonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := daemon.DeployGear("app", "v1", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dep.Read("/app/conf")
	if err != nil || string(data) != "shared config" {
		t.Errorf("shard-backed read = %q, %v", data, err)
	}
}

// A client of each of the five protocols, built with an empty base URL,
// says so on its first call.
func TestPublicClientConstructors(t *testing.T) {
	fp := gear.FingerprintBytes([]byte("x"))
	for _, tc := range []struct {
		protocol string
		call     func() error
	}{
		{"docker registry", func() error { _, err := gear.NewRegistryClient("", nil).ListManifests(); return err }},
		{"gear registry", func() error { _, err := gear.NewFileStoreClient("", nil).Query(fp); return err }},
		{"peer server", func() error { _, _, err := gear.NewFileStoreClient("", nil).Download(fp); return err }},
		{"tracker", func() error { return gear.NewTrackerClient("", nil).Announce("node0", fp) }},
		{"profile library", func() error { _, err := gear.NewProfileLibraryClient("", nil).List(); return err }},
	} {
		if err := tc.call(); err == nil || !strings.Contains(err.Error(), "empty base URL") {
			t.Errorf("%s client with an empty base URL: err = %v", tc.protocol, err)
		}
	}
}

func TestPublicBuildIndexChunked(t *testing.T) {
	fs := gear.NewFS()
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data)
	if err := fs.WriteFile("/blob", data, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, pool, err := gear.BuildIndexChunked("app", "v1", gear.ImageConfig{}, fs, gear.FixedChunks(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	entry := ix.Lookup("/blob")
	if entry == nil || len(entry.Chunks) != 8 {
		t.Fatalf("entry = %+v", entry)
	}
	var total int64
	for _, c := range entry.Chunks {
		piece, ok := pool[c.Fingerprint]
		if !ok {
			t.Fatalf("pool missing chunk %s", c.Fingerprint)
		}
		total += int64(len(piece))
	}
	if total != int64(len(data)) {
		t.Errorf("chunk bytes = %d, want %d", total, len(data))
	}
	if _, err := gear.CDCChunks(8 << 10).Split(data); err != nil {
		t.Errorf("Split: %v", err)
	}
}

func TestPublicFingerprints(t *testing.T) {
	fp := gear.FingerprintBytes([]byte("abc"))
	if string(fp) != "900150983cd24fb0d6963f7d28e17f72" {
		t.Errorf("fingerprint = %s", fp)
	}
	d := gear.DigestBytes([]byte("abc"))
	if !strings.HasPrefix(string(d), "sha256:") {
		t.Errorf("digest = %s", d)
	}
}

func TestPublicSlacker(t *testing.T) {
	img := buildApp(t, "v1", "payload")
	srv := gear.NewSlackerServer()
	bi, err := gear.SlackerImage(img, 512)
	if err != nil {
		t.Fatal(err)
	}
	srv.Put(bi)
	docker := gear.NewRegistry()
	if _, err := gear.PushImage(docker, img); err != nil {
		t.Fatal(err)
	}
	daemon, err := gear.NewDaemon(docker, gear.NewFileStore(gear.FileStoreOptions{}), gear.DaemonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	daemon.ConfigureSlacker(srv)
	dep, err := daemon.DeploySlacker("app", "v1", []string{"/app/bin"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dep.Read("/app/conf")
	if err != nil || string(data) != "shared config" {
		t.Errorf("slacker read = %q, %v", data, err)
	}
}
