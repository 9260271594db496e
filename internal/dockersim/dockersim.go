// Package dockersim simulates the deployment host of the paper's
// evaluation: a daemon that deploys containers from a Docker registry
// (eager pull of every layer), from a Gear registry (index pull + lazy
// file faults, §III-D), or from a Slacker block server (lazy 4 KB block
// paging), measuring the pull and run phases the way Fig 9 and Fig 10
// break them down.
//
// All time is virtual: network cost comes from a shared netsim.Link,
// local I/O and unpacking from simple throughput/latency models, and the
// container's own work from a caller-provided compute duration. Byte and
// request counts are exact; durations are deterministic functions of
// them.
package dockersim

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gear/store"
	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/slacker"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// Mode selects a deployment system.
type Mode int

// Deployment systems compared in the paper.
const (
	ModeDocker Mode = iota + 1
	ModeGear
	ModeSlacker
)

// String returns the mode's display name.
func (m Mode) String() string {
	switch m {
	case ModeDocker:
		return "docker"
	case ModeGear:
		return "gear"
	case ModeSlacker:
		return "slacker"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors returned by the daemon.
var (
	ErrNoSlacker   = errors.New("no slacker server configured")
	ErrNotDeployed = errors.New("container not deployed")
	// ErrDetached reports a deployment attempted on a daemon whose node
	// has left the cluster topology (its links are closed). It wraps
	// netsim.ErrLinkClosed so either sentinel matches.
	ErrDetached = fmt.Errorf("node detached: %w", netsim.ErrLinkClosed)
)

// Options configures a Daemon's cost model.
type Options struct {
	// Link models the client<->registry network. Required unless Links
	// is set.
	Link netsim.LinkConfig
	// Links, if set, attaches the daemon to a cluster topology instead
	// of a single link: registry traffic rides Links.WAN (which
	// replaces Link) and peer-to-peer Gear transfers ride Links.LAN.
	// Obtain it from netsim.Topology.Node.
	Links *netsim.NodeLinks
	// GearRequestBytes is the wire overhead charged per Gear file fetch
	// (HTTP request/response headers, framing). Unlike payload bytes it
	// does not scale with the corpus, which is what bends Gear's
	// low-bandwidth speedup toward the paper's curve (Fig 9). A file a
	// peer serves is charged the same — both paths speak the registry wire
	// protocol, which is what keeps per-node received bytes identical
	// whether a file came from a peer or the registry.
	GearRequestBytes int64
	// SlackerRequestBytes is the wire overhead per block fetch (NFS RPC
	// framing — leaner than HTTP).
	SlackerRequestBytes int64
	// Peers, if set, lets Gear fetches try cluster peers before the
	// registry (see store.Options.Peers). Peer transfers are priced on
	// Links.LAN when a topology is attached, on Link otherwise.
	Peers store.PeerSource
	// CacheCapacity/CachePolicy configure the Gear level-1 cache.
	CacheCapacity int64
	CachePolicy   cache.Policy
	// FetchWorkers > 1 enables the concurrent fetch engine for Gear
	// deploys: the known access set is pre-faulted through the store's
	// FetchAll with that many workers, and the transfer window is priced
	// by netsim's fair-share model. The default (0, treated as 1) keeps
	// the paper's serial lazy-fault path and its exact request-by-request
	// accounting.
	FetchWorkers int
	// Profiles, if set, enables profile-guided startup prefetch for Gear
	// deploys: each deploy records its access trace (persisted after the
	// run), and a deploy of an image with a persisted profile replays it
	// before the run phase, so the run's faults hit the warmed cache.
	// Nil keeps the exact pre-profile behavior.
	Profiles *prefetch.Library
	// ChunkWindowBytes bounds the bytes the daemon store's demand and
	// readahead transfers hold in flight (see
	// store.Options.ChunkWindowBytes). 0 selects the store default.
	ChunkWindowBytes int64
	// ChunkReadahead speculatively fetches up to this many chunks past a
	// container's ranged read that continues its stream through a file,
	// inside the window budget; a read that jumps fetches only its own
	// chunks (see store.Options.ChunkReadahead).
	ChunkReadahead int
	// Telemetry, if set, is the per-daemon metrics registry every
	// component (store, cache, scheduler, peer exchange) publishes into.
	// Nil creates a private registry, so Daemon.Snapshot always
	// works.
	Telemetry *telemetry.Registry
}

// The host's local cost model. No experiment varies it.
const (
	// localReadLatency and localReadBPS model serving a file that is
	// already local (page-cache-ish).
	localReadLatency = 10 * time.Microsecond
	localReadBPS     = 2e9
	// overlayLatency is the extra union-filesystem lookup cost per file
	// access; Docker and Gear pay it (both run on Overlay2), Slacker does
	// not (its ext4 sits directly on the block device) — the reason the
	// paper's first Tomcat container is 15.3% slower under Gear than
	// Slacker (§V-E2).
	overlayLatency = 8 * time.Microsecond
	// unpackBPS models layer decompression+extraction during the pull
	// phase. Gear pays it for the tiny index layer only.
	unpackBPS = 300e6
	// inodeDestroyCost is the per-cached-inode teardown cost at container
	// destruction (Fig 11b: Gear destroys faster because only required
	// files have cached inodes).
	inodeDestroyCost = 2 * time.Microsecond
)

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.GearRequestBytes == 0 {
		o.GearRequestBytes = 900
	}
	if o.SlackerRequestBytes == 0 {
		o.SlackerRequestBytes = 120
	}
	return o
}

// PhaseStats measures one deployment phase.
type PhaseStats struct {
	Time     time.Duration `json:"time"`
	Bytes    int64         `json:"bytes"`
	Requests int64         `json:"requests"`
}

// Deployment is one deployed container.
type Deployment struct {
	Mode        Mode
	Ref         string
	ContainerID string
	Pull        PhaseStats
	// Prefetch is the startup-profile replay between pull and run (Gear
	// deploys with Options.Profiles only; zero otherwise). Its traffic
	// is background-class: the same bytes the run phase would otherwise
	// stall on, moved before the container needs them.
	Prefetch PhaseStats
	Run      PhaseStats
	// DemandStall is the portion of the run phase spent blocked on the
	// network: its deploy.fault spans plus the run's own pre-fault
	// window. PrefetchErrors counts the profile objects the replay could
	// not fetch and left to lazy faulting (Gear deploys only).
	DemandStall    time.Duration
	PrefetchErrors int64
	// tree is the deployment's span tree, parents before children; see
	// Trace.
	tree []telemetry.Span

	daemon *Daemon
	// docker-mode state
	root *vfs.FS
	// gear-mode state
	view *viewer.Viewer
	// slacker-mode state: container id doubles as the mount handle.

	// overlay is the union-filesystem lookup the mode pays per file
	// access, and readFile serves one file of the container.
	overlay  time.Duration
	readFile func(p string) ([]byte, error)

	// inodes is the count of locally cached inodes at destroy time.
	inodes int
	closed bool
}

// Total returns pull+prefetch+run time.
func (d *Deployment) Total() time.Duration { return d.Pull.Time + d.Prefetch.Time + d.Run.Time }

// Trace returns the deployment's span tree in virtual time, parents
// before children. The root "deploy" lasts Total(). Its children are the
// phases: "deploy.pull", whose child "deploy.unpack" unpacks the new
// layers; "deploy.prefetch", the profile replay; and "deploy.run". The
// run's children are one "deploy.fault" per access that used the links
// (Ref is the path), one "deploy.local" for the local service time of
// every access (Objects counts them) and "deploy.compute"; its own time
// is the pre-fault window. Dur and Bytes are inclusive, so a span's self
// share is its value minus its children's; the self shares of the tree
// add up to Total(), and its self Bytes to the WAN bytes netsim charged
// the deploy. Spans are numbered by position: ID is the index plus one,
// Parent the parent's ID, 0 for the root.
func (d *Deployment) Trace() []telemetry.Span { return slices.Clone(d.tree) }

// spanOps are the kinds of span in a deployment's tree (see Trace), in
// the order Explain prints them.
var spanOps = []string{"deploy", "deploy.pull", "deploy.unpack", "deploy.prefetch",
	"deploy.run", "deploy.fault", "deploy.local", "deploy.compute"}

// Explain writes one row per kind of span in the deployment's tree: how
// many there are, their self time and their self WAN bytes. The self
// shares partition the tree, so the rows add up to the total row.
func (d *Deployment) Explain(w io.Writer) {
	rows := make([]telemetry.Span, len(spanOps)) // Objects counts spans; Dur and Bytes are self
	for _, s := range d.tree {
		r := &rows[slices.Index(spanOps, s.Op)]
		r.Objects, r.Dur, r.Bytes = r.Objects+1, r.Dur+s.Dur, r.Bytes+s.Bytes
		if s.Parent != 0 {
			p := &rows[slices.Index(spanOps, d.tree[s.Parent-1].Op)]
			p.Dur, p.Bytes = p.Dur-s.Dur, p.Bytes-s.Bytes
		}
	}
	fmt.Fprintf(w, "%-16s %6s %16s %12s\n", "span", "count", "self time", "self bytes")
	for i, r := range rows {
		if r.Objects > 0 {
			fmt.Fprintf(w, "%-16s %6d %16v %12d\n", spanOps[i], r.Objects, r.Dur, r.Bytes)
		}
	}
	fmt.Fprintf(w, "%-16s %6s %16v %12d\n", "total", "", d.tree[0].Dur, d.tree[0].Bytes)
}

// Daemon deploys containers. It is safe for concurrent use: distinct
// containers can deploy in parallel (image pulls serialize on the local
// layer store, matching dockerd's pull dedup). Note that the link and
// its virtual clock are shared, so when deploys do overlap, each span of
// a Deployment's tree attributes whatever traffic the link carried while
// it ran, not only its own — the paper's experiments deploy sequentially
// and measure each in isolation.
type Daemon struct {
	opts   Options
	docker registry.Store
	link   *netsim.Link
	// peerLink prices peer-to-peer Gear transfers. It equals link when
	// no topology is attached, so single-link setups keep working.
	peerLink *netsim.Link

	// layersMu guards layers, the local layer store implementing
	// Docker's client-side layer sharing (§II-C). It is held across a
	// whole image pull so concurrent deploys of one image fetch and
	// install it once.
	layersMu sync.Mutex
	layers   map[hashing.Digest]*imagefmt.Layer
	// gearStore is the three-level Gear storage.
	gearStore *store.Store
	// pusher publishes committed containers, priced on link.
	pusher *convert.Pusher
	// slackerSrv/slackerClient are set by ConfigureSlacker.
	slackerSrv    *slacker.Server
	slackerClient *slacker.Client

	// tele is the per-daemon metrics registry every component publishes
	// into.
	tele *telemetry.Registry

	// net gauges mirror the links' counters on demand (Snapshot).
	wanBytes, wanRequests, wanElapsed *telemetry.Gauge
	lanBytes, lanRequests, lanElapsed *telemetry.Gauge

	nextID atomic.Int64
}

// NewDaemon returns a Daemon speaking to the given registries.
func NewDaemon(docker registry.Store, gear gearregistry.Store, opts Options) (*Daemon, error) {
	opts = opts.withDefaults()
	var link, peerLink *netsim.Link
	if opts.Links != nil {
		link = opts.Links.WAN
		peerLink = opts.Links.LAN
	} else {
		var err error
		link, err = netsim.NewLink(opts.Link)
		if err != nil {
			return nil, fmt.Errorf("dockersim: %w", err)
		}
		peerLink = link
	}
	tele := opts.Telemetry
	if tele == nil {
		tele = telemetry.NewRegistry()
	}
	d := &Daemon{
		opts:        opts,
		docker:      docker,
		link:        link,
		peerLink:    peerLink,
		layers:      make(map[hashing.Digest]*imagefmt.Layer),
		tele:        tele,
		wanBytes:    tele.Gauge("net.wan.bytes"),
		wanRequests: tele.Gauge("net.wan.requests"),
		wanElapsed:  tele.Gauge("net.wan.elapsed.ns"),
		lanBytes:    tele.Gauge("net.lan.bytes"),
		lanRequests: tele.Gauge("net.lan.requests"),
		lanElapsed:  tele.Gauge("net.lan.elapsed.ns"),
	}
	var err error
	d.gearStore, err = store.New(store.Options{
		CacheCapacity:    opts.CacheCapacity,
		CachePolicy:      opts.CachePolicy,
		Remote:           gear,
		Peers:            opts.Peers,
		FetchWorkers:     max(opts.FetchWorkers, 1),
		Profiles:         opts.Profiles,
		ChunkWindowBytes: opts.ChunkWindowBytes,
		ChunkReadahead:   opts.ChunkReadahead,
		Telemetry:        tele,
		OnTransfer:       d.priceTransfer,
	})
	if err != nil {
		return nil, fmt.Errorf("dockersim: %w", err)
	}
	if gear == nil {
		// A daemon without a Gear registry deploys Docker and Slacker
		// containers only; it has nothing to commit.
		return d, nil
	}
	d.pusher, err = convert.NewPusher(convert.PushOptions{
		Gear:         gear,
		OnPushWindow: PricePushWindow(link, opts.GearRequestBytes),
	})
	if err != nil {
		return nil, fmt.Errorf("dockersim: %w", err)
	}
	return d, nil
}

// priceTransfer charges what the Gear store moved to the virtual links.
// Registry objects that were pipelined — a fault, the chunks of one span
// read, a readahead, a range — are one batch on the WAN: one RTT, and the
// link's service factor and jitter apply. A FetchAll window is priced by
// the fair-share model instead: each worker stream pays its request setup
// latency (one RTT for a batched round trip, one per object otherwise)
// and the streams split the link bandwidth at the link's current
// configuration. What peers served is a batch on the peer link. Moving
// no objects costs nothing on either. The price returned, WAN plus LAN
// time, is what the transfer added to the links' elapsed time, and the
// store's demand stall for a fault or range read.
func (d *Daemon) priceTransfer(t store.Transfer) time.Duration {
	wire := func(st store.StreamStat) int64 {
		return st.Bytes + int64(st.Objects)*d.opts.GearRequestBytes
	}
	var wan time.Duration
	if t.Window == nil {
		wan, _ = d.link.Transfer(t.Registry.Objects, wire(t.Registry))
	} else {
		streams := make([]netsim.Stream, 0, len(t.Window))
		for _, st := range t.Window {
			streams = append(streams, netsim.Stream{
				Requests: st.Objects, Bytes: wire(st), Batched: st.Batched})
		}
		wan, _ = d.link.TransferWindow(streams)
	}
	lan, _ := d.peerLink.Transfer(t.Peer.Objects, wire(t.Peer))
	return wan + lan
}

// PricePushWindow returns the convert.PushOptions.OnPushWindow hook that
// charges every push window to link — priceTransfer's counterpart for
// uploads. The dedup query goes first, the whole fingerprint set in one
// round trip; the upload streams then fair-share the link, one request
// (and requestBytes of wire overhead) per object, exactly like download
// windows.
func PricePushWindow(link *netsim.Link, requestBytes int64) func(convert.PushWindow) {
	return func(w convert.PushWindow) {
		link.Transfer(w.Queried, int64(w.Queried)*requestBytes)
		streams := make([]netsim.Stream, 0, len(w.Streams))
		for _, st := range w.Streams {
			streams = append(streams, netsim.Stream{
				Requests: st.Objects, Bytes: st.Bytes + int64(st.Objects)*requestBytes})
		}
		link.TransferWindow(streams)
	}
}

// ConfigureSlacker attaches a Slacker block server for ModeSlacker
// deployments.
func (d *Daemon) ConfigureSlacker(srv *slacker.Server) {
	d.slackerSrv = srv
	d.slackerClient = slacker.NewClient(srv, func(blocks int, bytes int64) {
		d.link.Transfer(blocks, bytes+int64(blocks)*d.opts.SlackerRequestBytes)
	})
}

// GearStore exposes the daemon's three-level Gear storage (its cache,
// installed indexes, commits). Its counters are read through Snapshot.
func (d *Daemon) GearStore() *store.Store { return d.gearStore }

// Telemetry returns the per-daemon metrics registry every component
// publishes into.
func (d *Daemon) Telemetry() *telemetry.Registry { return d.tele }

// Snapshot implements telemetry.Snapshotter: the unified telemetry
// snapshot for this daemon. The net.wan.*/net.lan.* gauges are
// refreshed from the links' own counters at snapshot time, so the
// snapshot is a complete picture without the links publishing on their
// hot path.
func (d *Daemon) Snapshot() telemetry.Snapshot {
	wan := d.link.Stats()
	d.wanBytes.Set(wan.Bytes)
	d.wanRequests.Set(wan.Requests)
	d.wanElapsed.Set(int64(wan.Elapsed))
	if d.peerLink != d.link {
		lan := d.peerLink.Stats()
		d.lanBytes.Set(lan.Bytes)
		d.lanRequests.Set(lan.Requests)
		d.lanElapsed.Set(int64(lan.Elapsed))
	}
	return d.tele.Snapshot()
}

// Link exposes the daemon's network link counters (the WAN link when a
// topology is attached).
func (d *Daemon) Link() *netsim.Link { return d.link }

// PeerLink exposes the link pricing peer-to-peer Gear transfers: the
// topology's LAN attachment, or the same link as Link() without one.
func (d *Daemon) PeerLink() *netsim.Link { return d.peerLink }

// ClearGearCache empties the Gear level-1 cache (cold-cache runs).
func (d *Daemon) ClearGearCache() { d.gearStore.ClearCache() }

// ClearLayerCache empties Docker's local layer store, in place: a daemon
// that is cleared between deploys keeps the store's buckets.
func (d *Daemon) ClearLayerCache() {
	d.layersMu.Lock()
	defer d.layersMu.Unlock()
	clear(d.layers)
}

// newDeployment starts a deployment of ref and its span tree's root.
func (d *Daemon) newDeployment(mode Mode, ref string) *Deployment {
	dep := &Deployment{Mode: mode, Ref: ref, daemon: d,
		ContainerID: mode.String() + "-" + strconv.FormatInt(d.nextID.Add(1), 10),
		tree:        make([]telemetry.Span, 0, 8)}
	dep.span(0, telemetry.Span{Op: "deploy", Ref: ref})
	return dep
}

// span appends s to the tree under the span at index parent and returns
// its index. Until finish, s holds its self values and Parent holds the
// parent's index.
func (dep *Deployment) span(parent int, s telemetry.Span) int {
	s.Parent = int64(parent)
	dep.tree = append(dep.tree, s)
	return len(dep.tree) - 1
}

// phase appends a phase span under the root that moved ps over the links.
func (dep *Deployment) phase(op, class string, ps PhaseStats) int {
	return dep.span(0, telemetry.Span{Op: op, Ref: dep.Ref, Class: class,
		Objects: int(ps.Requests), Bytes: ps.Bytes, Dur: ps.Time})
}

// finish closes dep's tree when the deploy ends. Parents precede their
// children, so one backward pass folds every span's Dur and Bytes into
// its parent's while each span is numbered by its position (ID index+1,
// Parent its parent's). The phase stats and DemandStall are then read
// off the tree.
func (dep *Deployment) finish() {
	t := dep.tree
	var busy time.Duration // the run's local service and compute
	for i := len(t) - 1; i > 0; i-- {
		s := &t[i]
		if s.Op == "deploy.local" || s.Op == "deploy.compute" {
			busy += s.Dur
		}
		t[s.Parent].Dur += s.Dur
		t[s.Parent].Bytes += s.Bytes
		s.ID, s.Parent = int64(i)+1, s.Parent+1
	}
	t[0].ID = 1
	dep.Pull, dep.Prefetch, dep.Run = dep.phaseStats("deploy.pull"), dep.phaseStats("deploy.prefetch"), dep.phaseStats("deploy.run")
	dep.DemandStall = dep.Run.Time - busy
}

// phaseStats returns what the phase op of dep's tree took, zero if the
// deploy had no such phase.
func (dep *Deployment) phaseStats(op string) PhaseStats {
	for _, s := range dep.tree {
		if s.Op == op {
			return PhaseStats{Time: s.Dur, Bytes: s.Bytes, Requests: int64(s.Objects)}
		}
	}
	return PhaseStats{}
}

// checkAttached guards a deployment entry point: deploying through a
// closed (detached) link would silently move zero-cost traffic, so it
// is a typed error instead.
func (d *Daemon) checkAttached() error {
	if d.link.Closed() || (d.peerLink != d.link && d.peerLink.Closed()) {
		return ErrDetached
	}
	return nil
}

// netDelta runs fn and returns the link stats it accrued. Bytes and
// Requests count WAN (registry) traffic only — they are the registry
// egress the experiments sum — while Time also includes what a separate
// peer LAN link spent, so deploy durations reflect every transfer.
func (d *Daemon) netDelta(fn func() error) (PhaseStats, error) {
	wan, lan := d.link.Stats(), d.peerLink.Stats()
	err := fn()
	wanAfter, lanAfter := d.link.Stats(), d.peerLink.Stats()
	ps := PhaseStats{Time: wanAfter.Elapsed - wan.Elapsed,
		Bytes: wanAfter.Bytes - wan.Bytes, Requests: wanAfter.Requests - wan.Requests}
	if d.peerLink != d.link {
		ps.Time += lanAfter.Elapsed - lan.Elapsed
	}
	return ps, err
}

// pricedRead runs one container read and prices it: local is the cost of
// serving the bytes it returned from local storage (after the mode's
// overlay lookup), net what the links carried for it.
func (dep *Deployment) pricedRead(read func() ([]byte, error)) (data []byte, local time.Duration, net PhaseStats, err error) {
	net, err = dep.daemon.netDelta(func() (err error) {
		data, err = read()
		return err
	})
	if err != nil {
		return nil, 0, net, err
	}
	local = dep.overlay + localReadLatency + time.Duration(float64(len(data))/localReadBPS*float64(time.Second))
	return data, local, net, nil
}

// pullImage downloads ref's manifest and every layer of it the local
// layer store does not hold yet, as both Docker and Gear (whose image is
// its index) do. unpacked is the uncompressed size of the new layers.
// read, if not "", is a file a new layer's ReadFile then answers without
// inflating the layer again (imagefmt.NewLayerFromTarball): Gear's index.
// The caller holds layersMu.
func (d *Daemon) pullImage(name, tag, read string) (img *imagefmt.Image, unpacked int64, err error) {
	m, err := d.docker.GetManifest(name, tag)
	if err != nil {
		return nil, 0, err
	}
	d.link.Transfer(1, m.EncodedSize())
	img = &imagefmt.Image{Manifest: m}
	for _, digest := range m.Layers {
		layer, ok := d.layers[digest]
		if !ok {
			blob, err := d.docker.GetBlob(digest)
			if err != nil {
				return nil, 0, err
			}
			d.link.Transfer(1, int64(len(blob)))
			layer, err = imagefmt.NewLayerFromTarball(blob, digest, read)
			if err != nil {
				return nil, 0, err
			}
			d.layers[digest] = layer
			unpacked += layer.UncompressedSize
		}
		img.Layers = append(img.Layers, layer)
	}
	return img, unpacked, nil
}

// pullPhase runs pull as dep's pull phase: what the links carried for it,
// and, its child, the unpacking of the bytes it reports it unpacked.
func (d *Daemon) pullPhase(dep *Deployment, pull func() (unpacked int64, err error)) error {
	var unpacked int64
	ps, err := d.netDelta(func() (err error) {
		unpacked, err = pull()
		return err
	})
	if err != nil {
		return err
	}
	dep.span(dep.phase("deploy.pull", telemetry.ClassDemand, ps), telemetry.Span{Op: "deploy.unpack",
		Dur: time.Duration(float64(unpacked) / unpackBPS * float64(time.Second))})
	return nil
}

// runPhase is dep's run phase: before (the pre-fault, if any), whose
// network time is the run's own, then every access, one deploy.fault span
// each that used the links, and the accesses' local service time and
// compute.
func (d *Daemon) runPhase(dep *Deployment, access []string, compute time.Duration, before func() error) error {
	var pre PhaseStats
	if before != nil {
		var err error
		if pre, err = d.netDelta(before); err != nil {
			return err
		}
	}
	run := dep.phase("deploy.run", telemetry.ClassDemand, pre)
	var local time.Duration
	for i, p := range access {
		_, cost, net, err := dep.pricedRead(func() ([]byte, error) { return dep.readFile(p) })
		if err != nil {
			return err
		}
		local += cost
		if net != (PhaseStats{}) {
			// A run that faults once mostly faults on: room for a span per
			// access left, and the two after them, costs less than doubling.
			dep.tree = slices.Grow(dep.tree, len(access)-i+2)
			dep.span(run, telemetry.Span{Op: "deploy.fault", Ref: p, Class: telemetry.ClassDemand,
				Objects: int(net.Requests), Bytes: net.Bytes, Dur: net.Time})
			dep.tree[run].Objects += int(net.Requests)
		}
	}
	dep.span(run, telemetry.Span{Op: "deploy.local", Objects: len(access), Dur: local})
	dep.span(run, telemetry.Span{Op: "deploy.compute", Dur: compute})
	return nil
}

// DeployDocker deploys ref the stock Docker way: download every layer
// not already local, unpack, mount, then run the task (access + compute).
func (d *Daemon) DeployDocker(name, tag string, access []string, compute time.Duration) (*Deployment, error) {
	if err := d.checkAttached(); err != nil {
		return nil, fmt.Errorf("dockersim: deploy docker %s:%s: %w", name, tag, err)
	}
	dep := d.newDeployment(ModeDocker, name+":"+tag)
	err := d.pullPhase(dep, func() (int64, error) {
		d.layersMu.Lock()
		defer d.layersMu.Unlock()
		img, unpacked, err := d.pullImage(name, tag, "")
		if err != nil {
			return 0, err
		}
		dep.root, err = img.Flatten()
		return unpacked, err
	})
	if err != nil {
		return nil, fmt.Errorf("dockersim: deploy docker %s:%s: %w", name, tag, err)
	}

	// Every access is local: the whole image is here.
	dep.overlay, dep.readFile = overlayLatency, dep.root.ReadFile
	if err := d.runPhase(dep, access, compute, nil); err != nil {
		return nil, fmt.Errorf("dockersim: docker run %s: %w", dep.Ref, err)
	}
	dep.inodes = dep.root.Stats().Files // everything was unpacked
	dep.finish()
	return dep, nil
}

// DeployGear deploys ref the Gear way: pull only the index image (if not
// local), install it at level 2, then run the task with lazy file
// faults (§III-D2).
func (d *Daemon) DeployGear(name, tag string, access []string, compute time.Duration) (*Deployment, error) {
	ref := name + ":" + tag
	if err := d.checkAttached(); err != nil {
		return nil, fmt.Errorf("dockersim: deploy gear %s: %w", ref, err)
	}
	dep := d.newDeployment(ModeGear, ref)
	err := d.pullPhase(dep, func() (int64, error) {
		d.layersMu.Lock()
		defer d.layersMu.Unlock()
		if d.gearStore.HasIndex(ref) {
			return 0, nil
		}
		img, unpacked, err := d.pullImage(name, tag, index.IndexFileName)
		if err != nil {
			return 0, err
		}
		return unpacked, d.gearStore.InstallImage(img)
	})
	if err != nil {
		return nil, fmt.Errorf("dockersim: deploy gear %s: %w", ref, err)
	}

	view, err := d.gearStore.CreateContainer(dep.ContainerID, ref)
	if err != nil {
		return nil, fmt.Errorf("dockersim: deploy gear %s: %w", ref, err)
	}
	dep.view, dep.overlay, dep.readFile = view, overlayLatency, view.ReadFile
	if err := d.startGear(dep, ref, access, compute); err != nil {
		// No Deployment is returned to destroy the container with.
		if rmErr := d.gearStore.RemoveContainer(dep.ContainerID); rmErr != nil {
			err = errors.Join(err, rmErr)
		}
		return nil, err
	}
	// Teardown releases the inode cache of the files this container
	// touched — required files only, never the whole image (§V-F).
	dep.inodes = uniqueCount(access)
	dep.finish()
	return dep, nil
}

// startGear runs the container DeployGear created: the profile replay,
// the run, and the profile save.
func (d *Daemon) startGear(dep *Deployment, ref string, access []string, compute time.Duration) error {
	// Startup-profile replay: with a profile library configured and a
	// persisted profile for this image, warm the level-1 cache with the
	// recorded access set before the container starts reading. The
	// virtual clock makes a truly concurrent replay nondeterministic, so
	// the simulator runs it as its own phase — the bytes move on the
	// same link either way; what changes is that the run phase no longer
	// stalls on them. Without a profile (or without a library) this
	// phase is exactly zero and the deploy behaves as before.
	if d.opts.Profiles != nil {
		pre, err := d.netDelta(func() error {
			res, err := d.gearStore.PrefetchProfile(ref)
			dep.PrefetchErrors = int64(res.Failed)
			if res.Found {
				// The replay ran; what it could not fetch is speculation
				// lost, and the container faults it in only if it reads it.
				return nil
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("dockersim: gear prefetch %s: %w", ref, err)
		}
		dep.phase("deploy.prefetch", telemetry.ClassPrefetch, pre)
	}

	// With the concurrent fetch engine on, pre-fault the access set
	// through the bounded worker pool; the lazy reads then hit cache.
	// With one worker (the default), the per-fault serial path reproduces
	// the paper's request-by-request accounting.
	prefault := func() error {
		if d.opts.FetchWorkers <= 1 {
			return nil
		}
		fps, err := d.gearStore.Fingerprints(ref, access)
		if err != nil {
			return err
		}
		_, err = d.gearStore.FetchAll(fps)
		return err
	}
	if err := d.runPhase(dep, access, compute, prefault); err != nil {
		return fmt.Errorf("dockersim: gear run %s: %w", ref, err)
	}
	// Persist this deploy's access trace so the next deploy of the image
	// can replay it. SaveProfile keeps the richer of old and new traces.
	if _, err := d.gearStore.SaveProfile(ref); err != nil {
		return fmt.Errorf("dockersim: gear profile %s: %w", ref, err)
	}
	return nil
}

// uniqueCount returns the number of distinct strings in list: those no
// earlier one equals. A deploy's access list is a hundred-odd paths, few
// of them of one length, so the pairwise scan costs less than the set it
// would otherwise build on every deploy, and allocates nothing.
func uniqueCount(list []string) int {
	n := 0
next:
	for i, s := range list {
		for _, earlier := range list[:i] {
			if earlier == s {
				continue next
			}
		}
		n++
	}
	return n
}

// DeploySlacker deploys ref from the Slacker block server: mount, then
// page blocks in as the task reads.
func (d *Daemon) DeploySlacker(name, tag string, access []string, compute time.Duration) (*Deployment, error) {
	if d.slackerClient == nil {
		return nil, fmt.Errorf("dockersim: %w", ErrNoSlacker)
	}
	ref := name + ":" + tag
	if err := d.checkAttached(); err != nil {
		return nil, fmt.Errorf("dockersim: deploy slacker %s: %w", ref, err)
	}
	dep := d.newDeployment(ModeSlacker, ref)
	err := d.pullPhase(dep, func() (int64, error) {
		return 0, d.slackerClient.Mount(dep.ContainerID, ref)
	})
	if err != nil {
		return nil, fmt.Errorf("dockersim: deploy slacker %s: %w", ref, err)
	}
	// No overlay layer on Slacker's ext4-on-device path.
	dep.readFile = func(p string) ([]byte, error) { return d.slackerClient.ReadFile(dep.ContainerID, p) }
	if err := d.runPhase(dep, access, compute, nil); err != nil {
		return nil, fmt.Errorf("dockersim: slacker run %s: %w", ref, err)
	}
	dep.inodes = len(access)
	dep.finish()
	return dep, nil
}

// Read serves one file from the deployed container, returning the data
// and its modeled service latency. Long-running services (Fig 11a) call
// this in their request loops.
func (dep *Deployment) Read(p string) ([]byte, time.Duration, error) {
	return dep.read(func() ([]byte, error) { return dep.readFile(p) })
}

// read prices one read of the running container: its local service cost
// plus whatever the links carried for it.
func (dep *Deployment) read(read func() ([]byte, error)) ([]byte, time.Duration, error) {
	if dep.closed {
		return nil, 0, fmt.Errorf("dockersim: %s: %w", dep.ContainerID, ErrNotDeployed)
	}
	data, local, net, err := dep.pricedRead(read)
	return data, local + net.Time, err
}

// ReadAt serves n bytes of one file from offset off, returning the
// data and its modeled service latency. On a Gear deployment with a
// chunked file only the overlapping chunks fault in, so the latency is
// the partial-read stall the chunked format exists to shrink; Docker
// and Slacker deployments slice their full-file read.
func (dep *Deployment) ReadAt(p string, off, n int64) ([]byte, time.Duration, error) {
	if dep.Mode == ModeGear {
		return dep.read(func() ([]byte, error) { return dep.view.ReadAt(p, off, n) })
	}
	data, cost, err := dep.Read(p)
	if err != nil {
		return nil, 0, err
	}
	if off < 0 || n <= 0 || off >= int64(len(data)) {
		return nil, cost, nil
	}
	if off+n > int64(len(data)) {
		n = int64(len(data)) - off
	}
	return data[off : off+n], cost, nil
}

// Write stores a file in the container's writable layer (Gear/Docker
// containers only; the Docker simulation writes to the materialized
// root, standing in for its writable layer).
func (dep *Deployment) Write(p string, data []byte) error {
	if dep.closed {
		return fmt.Errorf("dockersim: %s: %w", dep.ContainerID, ErrNotDeployed)
	}
	switch dep.Mode {
	case ModeDocker:
		return dep.root.WriteFile(p, data, 0o644)
	case ModeGear:
		return dep.view.WriteFile(p, data, 0o644)
	default:
		return fmt.Errorf("dockersim: %s containers are read-only in this model", dep.Mode)
	}
}

// Commit turns a running Gear container into a new Gear image and
// publishes it through the daemon's Pusher like any converted image:
// new Gear files to the Gear registry (absent ones only), then the new
// index image to the Docker registry (§III-D2's full commit path). It
// returns the new reference and the bytes uploaded.
func (dep *Deployment) Commit(newName, newTag string) (ref string, uploaded int64, err error) {
	if dep.closed {
		return "", 0, fmt.Errorf("dockersim: %s: %w", dep.ContainerID, ErrNotDeployed)
	}
	if dep.Mode != ModeGear {
		return "", 0, fmt.Errorf("dockersim: commit: %s containers cannot commit in this model", dep.Mode)
	}
	d := dep.daemon
	newIx, newFiles, err := d.gearStore.Commit(dep.ContainerID, newName, newTag)
	if err != nil {
		return "", 0, fmt.Errorf("dockersim: commit %s: %w", dep.ContainerID, err)
	}
	ixImg, err := newIx.ToImage()
	if err != nil {
		return "", 0, fmt.Errorf("dockersim: commit %s: %w", dep.ContainerID, err)
	}
	pushed, window, err := d.pusher.Push(&convert.Result{Index: newIx, Files: newFiles, IndexImage: ixImg}, d.docker)
	if err != nil {
		return "", 0, fmt.Errorf("dockersim: commit %s: %w", dep.ContainerID, err)
	}
	d.link.Transfer(1, pushed)
	return newIx.Reference(), window.Bytes() + pushed, nil
}

// Destroy tears the container down and returns the modeled teardown
// time: per-inode cache destruction (Fig 11b's destroy bar).
func (dep *Deployment) Destroy() (time.Duration, error) {
	if dep.closed {
		return 0, fmt.Errorf("dockersim: %s: %w", dep.ContainerID, ErrNotDeployed)
	}
	dep.closed = true
	d := dep.daemon
	switch dep.Mode {
	case ModeGear:
		if err := d.gearStore.RemoveContainer(dep.ContainerID); err != nil {
			return 0, err
		}
	case ModeSlacker:
		if err := d.slackerClient.Unmount(dep.ContainerID); err != nil {
			return 0, err
		}
	case ModeDocker:
		dep.root = nil
	}
	return time.Duration(dep.inodes) * inodeDestroyCost, nil
}
