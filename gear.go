// Package gear is the public API of the Gear reproduction — an
// implementation of "Gear: Enable Efficient Container Storage and
// Deployment with a New Image Format" (ICDCS 2021).
//
// Gear replaces the monolithic Docker image with two decoupled parts:
//
//   - a tiny Gear index — the image's directory tree with every regular
//     file replaced by the MD5 fingerprint of its content, packaged as a
//     single-layer Docker image so the stock distribution path carries it;
//   - a pool of Gear files — the file contents, stored content-addressed
//     in a Gear registry and deduplicated across all images.
//
// A client deploys a container by pulling only the index and faulting
// files in on demand, through a three-level local store (shared file
// cache / image indexes / per-container diffs). The package exposes the
// whole pipeline:
//
//	fs := gear.NewFS()                       // author a root filesystem
//	... fs.MkdirAll / fs.WriteFile ...
//	img, _ := gear.SingleLayerImage("app", "v1", fs, gear.ImageConfig{})
//
//	docker := gear.NewRegistry()             // Docker-side registry
//	files := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
//	conv, _ := gear.NewConverter(gear.ConverterOptions{})
//	res, _ := conv.Convert(img)              // Docker image -> Gear image
//	gear.Publish(res, docker, files)         // files first, then the index
//
//	daemon, _ := gear.NewDaemon(docker, files, gear.DaemonOptions{})
//	dep, _ := daemon.DeployGear("app", "v1", accessPaths, 0)
//	data, _, _ := dep.Read("/etc/app.conf")  // lazily fetched
//
// Both registries also speak HTTP (RegistryHandler/FileStoreHandler and
// the matching clients), mirroring the paper's two-server deployment.
//
// At fleet scale the single Gear registry is replaced by the sharded
// tier: a ShardCluster consistent-hashes the file pool over replicated
// members and satisfies GearStore, so it drops into the same pipeline —
//
//	cluster, _ := gear.NewShardCluster(gear.ShardClusterOptions{
//		Shards: []string{"s0", "s1", "s2"}, Replication: 2,
//	})
//	daemon, _ := gear.NewDaemon(docker, cluster, gear.DaemonOptions{})
//
// Large files (the AI/big-model workload) chunk at conversion time with
// a content-defined policy and fault in chunk by chunk through a
// bounded fetch window, a container reading a file front to back
// ChunkReadahead chunks ahead of its reads; registries additionally
// serve byte ranges (GearRangeStore) so even unchunked cold files can be
// read partially:
//
//	conv, _ := gear.NewConverter(gear.ConverterOptions{
//		Chunking: gear.CDCChunks(4 << 20), // 4 MB average chunks
//	})
//	st, _ := gear.NewStore(gear.StoreOptions{
//		Remote: files, ChunkWindowBytes: 8 << 20, ChunkReadahead: 2,
//	})
package gear

import (
	"io"
	"net/http"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/dedup"
	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/experiments"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gear/store"
	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/peer"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/shardreg"
	"github.com/gear-image/gear/internal/slacker"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
	"github.com/gear-image/gear/internal/wire"
)

// Content addressing.
type (
	// Fingerprint identifies a Gear file (MD5 of its content).
	Fingerprint = hashing.Fingerprint
	// Digest identifies a Docker layer or manifest (SHA256).
	Digest = hashing.Digest
)

// FingerprintBytes returns the MD5 fingerprint of data.
func FingerprintBytes(data []byte) Fingerprint { return hashing.FingerprintBytes(data) }

// DigestBytes returns the SHA256 digest of data.
func DigestBytes(data []byte) Digest { return hashing.DigestBytes(data) }

// Filesystem authoring.
type (
	// FS is an in-memory root filesystem tree.
	FS = vfs.FS
	// FSNode is one entry of an FS.
	FSNode = vfs.Node
)

// NewFS returns an empty filesystem containing only the root directory.
func NewFS() *FS { return vfs.New() }

// Docker image model.
type (
	// Image is a Docker image: manifest plus layer payloads.
	Image = imagefmt.Image
	// Manifest describes an image in a registry.
	Manifest = imagefmt.Manifest
	// ImageConfig carries environment/entrypoint/labels.
	ImageConfig = imagefmt.Config
	// ImageBuilder assembles an image layer by layer.
	ImageBuilder = imagefmt.Builder
	// Layer is one read-only image layer.
	Layer = imagefmt.Layer
)

// NewImageBuilder starts an image build for name:tag.
func NewImageBuilder(name, tag string) *ImageBuilder { return imagefmt.NewBuilder(name, tag) }

// SingleLayerImage packages one tree as a single-layer image.
func SingleLayerImage(name, tag string, tree *FS, cfg ImageConfig) (*Image, error) {
	return imagefmt.SingleLayerImage(name, tag, tree, cfg)
}

// The Gear image format.
type (
	// Index is a Gear index: the metadata half of a Gear image.
	Index = index.Index
	// IndexEntry is one node of the index tree.
	IndexEntry = index.Entry
	// FileRef is one unique Gear file an index references.
	FileRef = index.FileRef
	// ChunkPolicy selects how large files split into chunks: fixed-size
	// pieces or content-defined (rolling-hash) chunks. The zero value
	// keeps files whole.
	ChunkPolicy = index.ChunkPolicy
	// FileChunk is one chunk of a split Gear file, in file order.
	FileChunk = index.Chunk
)

// FixedChunks is the fixed-size chunk policy: files larger than size
// split into size-byte pieces.
func FixedChunks(size int64) ChunkPolicy { return index.FixedChunks(size) }

// CDCChunks is the content-defined chunk policy: rolling-hash cut
// points averaging avg bytes within [avg/4, avg*4], so identical
// regions of different files chunk identically regardless of offset.
func CDCChunks(avg int64) ChunkPolicy { return index.CDCChunks(avg) }

// BuildIndex constructs an Index and its file pool from a flattened root
// filesystem.
func BuildIndex(name, tag string, cfg ImageConfig, root *FS) (*Index, map[Fingerprint][]byte, error) {
	return index.Build(name, tag, cfg, root, nil)
}

// BuildIndexChunked is BuildIndex with large files split under pol; the
// pool then holds chunks as first-class Gear files and the index
// carries each split file's chunk table.
func BuildIndexChunked(name, tag string, cfg ImageConfig, root *FS, pol ChunkPolicy) (*Index, map[Fingerprint][]byte, error) {
	return index.BuildPolicy(name, tag, cfg, root, nil, pol)
}

// IndexFromImage extracts the Index from a pulled single-layer Gear
// index image.
func IndexFromImage(img *Image) (*Index, error) { return index.FromImage(img) }

// Registries.
type (
	// Registry is the Docker-side registry: manifests plus compressed
	// layers, deduplicated at layer granularity.
	Registry = registry.Registry
	// RegistryStore is the protocol shared by in-process and HTTP
	// registries.
	RegistryStore = registry.Store
	// RegistryClient speaks to a remote Registry over HTTP.
	RegistryClient = registry.Client
	// FileStore is the Gear registry: content-addressed Gear files with
	// query/upload/download.
	FileStore = gearregistry.Registry
	// FileStoreOptions configures a FileStore.
	FileStoreOptions = gearregistry.Options
	// GearStore is the protocol shared by in-process and HTTP Gear
	// registries: query, upload, download, the batched forms of query
	// and download, and the byte-range read.
	GearStore = gearregistry.Store
	// GearRangeStore is the byte-range verb of GearStore:
	// DownloadRange(fp, off, n) returns n bytes of a Gear file from
	// offset off. The in-process FileStore, the HTTP client and the
	// ShardCluster all implement it.
	GearRangeStore = gearregistry.RangeDownloader
	// FileStoreClient speaks to a remote FileStore over HTTP.
	FileStoreClient = gearregistry.Client
)

// NewRegistry returns an empty in-process Docker-side registry.
func NewRegistry() *Registry { return registry.New() }

// NewFileStore returns an empty in-process Gear registry.
func NewFileStore(opts FileStoreOptions) *FileStore { return gearregistry.New(opts) }

// RegistryHandler serves a Registry over HTTP.
func RegistryHandler(r *Registry) http.Handler { return registry.NewHandler(r) }

// FileStoreHandler serves a FileStore over HTTP.
func FileStoreHandler(f *FileStore) http.Handler { return gearregistry.NewHandler(f) }

// NewRegistryClient returns a Store for the registry at baseURL.
func NewRegistryClient(baseURL string, hc *http.Client) *RegistryClient {
	return registry.NewClient(baseURL, hc)
}

// NewFileStoreClient returns a Store for the Gear registry at baseURL.
func NewFileStoreClient(baseURL string, hc *http.Client) *FileStoreClient {
	return gearregistry.NewClient(baseURL, hc)
}

// PushImage uploads an image, skipping layers the registry already has.
func PushImage(s RegistryStore, img *Image) (int64, error) { return registry.Push(s, img) }

// PullImage fetches a complete image.
func PullImage(s RegistryStore, name, tag string) (*Image, error) {
	return registry.Pull(s, name, tag)
}

// Conversion.
type (
	// Converter turns Docker images into Gear images.
	Converter = convert.Converter
	// ConverterOptions configures a Converter.
	ConverterOptions = convert.Options
	// ConvertResult is one converted image: index, file pool, index
	// image, and the modeled conversion timing.
	ConvertResult = convert.Result
)

// NewConverter returns a Converter.
func NewConverter(opts ConverterOptions) (*Converter, error) { return convert.New(opts) }

// Publish stores a conversion result. It is the one-shot form of
// Pusher.Push: absent Gear files go to the Gear registry first (one
// batched dedup query, then a bounded upload pool), and the index image
// goes to the Docker registry only once they are all in.
func Publish(res *ConvertResult, docker RegistryStore, files GearStore) (indexBytes, fileBytes int64, err error) {
	return convert.Publish(res, docker, files)
}

// Concurrent push pipeline.
type (
	// Pusher uploads Gear file sets: one batched dedup query for the
	// whole set, then the absent files through a bounded worker pool.
	Pusher = convert.Pusher
	// PusherOptions configures a Pusher.
	PusherOptions = convert.PushOptions
	// PushWindow summarizes one PushAll call (query round trips, dedup
	// skips, upload streams).
	PushWindow = convert.PushWindow
)

// NewPusher returns a Pusher uploading to opts.Gear.
func NewPusher(opts PusherOptions) (*Pusher, error) { return convert.NewPusher(opts) }

// Client-side storage and deployment.
type (
	// Store is the client's three-level Gear storage.
	Store = store.Store
	// StoreOptions configures a Store.
	StoreOptions = store.Options
	// StoreTransfer is what one Store operation moved over the network,
	// as StoreOptions.OnTransfer observes it.
	StoreTransfer = store.Transfer
	// Viewer is one container's lazy filesystem view.
	Viewer = viewer.Viewer
	// CachePolicy selects the level-1 replacement algorithm.
	CachePolicy = cache.Policy
	// Daemon deploys containers from registries (Docker, Gear, or
	// Slacker mode) with modeled phase timing.
	Daemon = dockersim.Daemon
	// DaemonOptions configures a Daemon's cost model.
	DaemonOptions = dockersim.Options
	// Deployment is one deployed container.
	Deployment = dockersim.Deployment
	// LinkConfig models the client-registry network.
	LinkConfig = netsim.LinkConfig
)

// Cache replacement policies (§III-D1).
const (
	CacheFIFO = cache.FIFO
	CacheLRU  = cache.LRU
)

// NewStore returns an empty client store.
func NewStore(opts StoreOptions) (*Store, error) { return store.New(opts) }

// NewDaemon returns a deployment daemon speaking to the given registries.
// A zero-valued DaemonOptions.Link defaults to the paper's measured
// 904 Mbps LAN.
func NewDaemon(docker RegistryStore, files GearStore, opts DaemonOptions) (*Daemon, error) {
	if opts.Link == (netsim.LinkConfig{}) {
		opts.Link = netsim.DefaultLAN()
	}
	return dockersim.NewDaemon(docker, files, opts)
}

// DefaultLAN is the paper's measured 904 Mbps two-server link.
func DefaultLAN() LinkConfig { return netsim.DefaultLAN() }

// The sharded registry tier. A ShardCluster consistent-hashes the Gear
// file pool over replicated shard members with load-balanced, hedged
// replica reads and byte-range routing; it satisfies GearStore (and
// GearRangeStore), so it substitutes for a single FileStore anywhere —
// in particular as NewDaemon's files argument.
type (
	// ShardCluster is the routing client over the sharded Gear
	// registry tier.
	ShardCluster = shardreg.Cluster
	// ShardClusterOptions configures a ShardCluster: members,
	// replication, compression, and read tuning.
	ShardClusterOptions = shardreg.Options
	// ShardReadOptions tunes replica selection and request hedging on
	// the cluster's download path.
	ShardReadOptions = shardreg.ReadOptions
	// ShardStats is a point-in-time view of the tier.
	ShardStats = shardreg.Stats
)

// NewShardCluster returns a sharded Gear registry tier.
func NewShardCluster(opts ShardClusterOptions) (*ShardCluster, error) {
	return shardreg.New(opts)
}

// Baselines and workloads.
type (
	// SlackerServer hosts block-device images (the Fig 10 baseline).
	SlackerServer = slacker.Server
	// Workload generates the paper-shaped synthetic image corpus.
	Workload = corpus.Corpus
	// WorkloadOptions configures corpus generation.
	WorkloadOptions = corpus.Options
	// WorkloadCategory is one of Table I's six categories.
	WorkloadCategory = corpus.Category
)

// NewSlackerServer returns an empty Slacker block server.
func NewSlackerServer() *SlackerServer { return slacker.NewServer() }

// SlackerImage lays out an image as a virtual block device.
func SlackerImage(img *Image, blockSize int64) (*slacker.BlockImage, error) {
	return slacker.FromImage(img, blockSize)
}

// NewWorkload generates the deterministic synthetic corpus (Table I
// shape: 50 series, 971 images at full version counts).
func NewWorkload(opts WorkloadOptions) (*Workload, error) { return corpus.New(opts) }

// Deduplication analysis (the Table II study).
type (
	// DedupAnalyzer measures storage and object counts under
	// none/layer/file/chunk deduplication.
	DedupAnalyzer = dedup.Analyzer
	// DedupReport is one granularity's measurement.
	DedupReport = dedup.Report
	// DedupGranularity selects the dedup unit.
	DedupGranularity = dedup.Granularity
)

// Dedup granularities.
const (
	DedupNone  = dedup.None
	DedupLayer = dedup.Layer
	DedupFile  = dedup.File
	DedupChunk = dedup.Chunk
	DedupCDC   = dedup.CDC
)

// NewDedupAnalyzer returns an analyzer using chunkSize for the chunk row.
func NewDedupAnalyzer(chunkSize int64) (*DedupAnalyzer, error) {
	return dedup.NewAnalyzer(chunkSize)
}

// Observability. Every long-lived component (Daemon, FileStore,
// Registry, Tracker, profile Library) publishes typed metrics into a
// MetricsRegistry and answers Snapshot() with the same unified,
// JSON-marshalable StatsSnapshot — the payload MetricsHandler serves on
// /metrics and `gearctl stats` diffs and pretty-prints. A Daemon's store,
// cache and peer counters are read there and nowhere else: there is no
// second, typed accessor to reconcile with it.
type (
	// MetricsRegistry is a process- or component-scoped set of named
	// counters, gauges, and latency histograms with atomic hot paths.
	MetricsRegistry = telemetry.Registry
	// StatsSnapshot is the unified point-in-time view of a
	// MetricsRegistry: JSON-marshalable, diffable, and validatable.
	StatsSnapshot = telemetry.Snapshot
	// TraceSpan is one structured trace event: a node of a deployment's
	// span tree (Deployment.Trace, whose root and phases a Daemon's trace
	// ring also holds; ID and Parent link the tree, Dur and Bytes include
	// the children's), or a store's fetch window or blocking fault from
	// the ring.
	TraceSpan = telemetry.Span
	// TraceRing is a bounded in-memory span buffer.
	TraceRing = telemetry.TraceRing
	// Tracker maps Gear-file fingerprints to the cluster nodes holding
	// them (peer-to-peer distribution).
	Tracker = peer.Tracker
	// TrackerClient speaks to a remote Tracker over HTTP.
	TrackerClient = peer.TrackerClient
	// ProfileLibrary persists startup profiles for prefetch-guided
	// deploys.
	ProfileLibrary = prefetch.Library
	// ProfileLibraryClient speaks to a remote ProfileLibrary over HTTP.
	ProfileLibraryClient = prefetch.LibraryClient
)

// NewMetricsRegistry returns an empty metrics registry, typically
// passed to DaemonOptions.Telemetry, FileStoreOptions.Telemetry, or
// ExperimentConfig.Telemetry so several components share one snapshot.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// MetricsHandler serves src's snapshot as indented JSON on GET — the
// /metrics endpoint every bundled server mounts.
func MetricsHandler(src telemetry.Snapshotter) http.Handler {
	return wire.NewHandler(nil, telemetry.Verb("*", src))
}

// NewTracker returns an empty peer tracker publishing into a private
// metrics registry.
func NewTracker() *Tracker { return peer.NewTracker() }

// TrackerHandler serves a Tracker over HTTP (including /peer/metrics).
func TrackerHandler(t *Tracker) http.Handler { return peer.NewTrackerHandler(t) }

// NewTrackerClient returns a client for the tracker at baseURL.
func NewTrackerClient(baseURL string, hc *http.Client) *TrackerClient {
	return peer.NewTrackerClient(baseURL, hc)
}

// NewProfileLibrary returns an empty startup-profile library.
func NewProfileLibrary() *ProfileLibrary { return prefetch.NewLibrary() }

// ProfileLibraryHandler serves a ProfileLibrary over HTTP (including
// /profile/metrics).
func ProfileLibraryHandler(lib *ProfileLibrary) http.Handler {
	return prefetch.NewLibraryHandler(lib)
}

// NewProfileLibraryClient returns a client for the profile library at
// baseURL.
func NewProfileLibraryClient(baseURL string, hc *http.Client) *ProfileLibraryClient {
	return prefetch.NewLibraryClient(baseURL, hc)
}

// Experiments.
type (
	// ExperimentConfig scales and seeds an experiment run.
	ExperimentConfig = experiments.Config
)

// DefaultExperimentConfig is the calibrated full-corpus configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// QuickExperimentConfig is a reduced configuration for fast runs.
func QuickExperimentConfig() ExperimentConfig { return experiments.Quick() }

// RunExperiment regenerates one of the paper's tables/figures ("table2",
// "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", or "all"),
// writing the report to w.
func RunExperiment(id string, cfg ExperimentConfig, w io.Writer) error {
	return experiments.Run(id, cfg, w)
}

// ExperimentIDs lists the available experiments in paper order.
func ExperimentIDs() []string { return experiments.IDs() }
