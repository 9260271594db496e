// Command gearctl drives Gear registries: it seeds them with synthetic
// workload images (originals plus converted Gear images), lists what a
// registry holds, inspects Gear indexes, and deploys containers against
// remote registries while reporting phase timing and transfer volumes.
//
// Usage:
//
//	gearctl seed   -docker URL -gear URL -series nginx -versions 3
//	gearctl list   -docker URL
//	gearctl index  -docker URL -image gear/nginx:v01
//	gearctl deploy -docker URL -gear URL -image gear/nginx:v01 -mode gear -mbps 100
//	gearctl gc     -docker URL -gear URL
//	gearctl peers  -tracker URL
//	gearctl profile -library URL [-dump name:tag | -delete name:tag]
//	gearctl stats  -url URL [-path /metrics] [-json] [-diff FILE] [-save FILE]
//	gearctl fleet  -scenario flashcrowd -nodes 64 -seed 7 [-shards 4 -balance -hedge] [-json]
//	gearctl shards -shards 4 -replicas 2 [-readpass 3 -balance -hedge -slow auto] [-json]
//
// The deploy subcommand's -mode selects the Docker baseline ("docker",
// full image pull) or Gear ("gear", lazy index pull). Bandwidth is the
// simulated link; transfer byte counts are exact HTTP volumes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/fleet"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/netsim"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gearctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: gearctl <seed|list|index|deploy|fleet> [flags]")
	}
	switch args[0] {
	case "seed":
		return cmdSeed(args[1:])
	case "list":
		return cmdList(args[1:])
	case "index":
		return cmdIndex(args[1:])
	case "deploy":
		return cmdDeploy(args[1:], os.Stdout)
	case "gc":
		return cmdGC(args[1:])
	case "peers":
		return cmdPeers(args[1:], os.Stdout)
	case "profile":
		return cmdProfile(args[1:])
	case "stats":
		return cmdStats(args[1:], os.Stdout)
	case "fleet":
		return cmdFleet(args[1:], os.Stdout)
	case "shards":
		return cmdShards(args[1:], os.Stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want seed, list, index, deploy, gc, peers, profile, stats, fleet, or shards)", args[0])
	}
}

// gearPrefix names a seeded series' Gear form beside the original in the
// Docker registry: seed publishes under it, deploy strips it to find the
// series.
const gearPrefix = "gear/"

func splitRef(ref string) (name, tag string, err error) {
	i := strings.LastIndex(ref, ":")
	if i <= 0 || i == len(ref)-1 {
		return "", "", fmt.Errorf("image reference %q: want name:tag", ref)
	}
	return ref[:i], ref[i+1:], nil
}

func cmdSeed(args []string) error {
	fs := flag.NewFlagSet("seed", flag.ContinueOnError)
	var (
		dockerURL = fs.String("docker", "http://localhost:7000", "docker registry URL")
		gearURL   = fs.String("gear", "http://localhost:7001", "gear registry URL")
		series    = fs.String("series", "nginx", "workload series to seed")
		versions  = fs.Int("versions", 3, "number of versions")
		scale     = fs.Float64("scale", 1.0, "workload scale")
		seed      = fs.Int64("seed", 20211107, "workload seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	co, err := corpus.New(corpus.Options{
		Seed: *seed, Scale: *scale,
		SeriesFilter: []string{*series}, MaxVersions: *versions,
	})
	if err != nil {
		return err
	}
	docker := registry.NewClient(*dockerURL, nil)
	gearStore := gearregistry.NewClient(*gearURL, nil)
	conv, err := convert.New(convert.Options{IndexPrefix: gearPrefix})
	if err != nil {
		return err
	}
	s := co.Series()[0]
	for v := 0; v < s.NumVersions; v++ {
		img, err := co.Image(s.Name, v)
		if err != nil {
			return err
		}
		pushed, err := registry.Push(docker, img)
		if err != nil {
			return err
		}
		res, err := conv.Convert(img)
		if err != nil {
			return err
		}
		ixBytes, fileBytes, err := convert.Publish(res, docker, gearStore)
		if err != nil {
			return err
		}
		fmt.Printf("seeded %s:%s: image %d B, index %d B, new gear files %d B (conversion %v)\n",
			s.Name, s.Tags()[v], pushed, ixBytes, fileBytes, res.Timing.Total().Round(time.Millisecond))
	}
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	dockerURL := fs.String("docker", "http://localhost:7000", "docker registry URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	refs, err := registry.NewClient(*dockerURL, nil).ListManifests()
	if err != nil {
		return err
	}
	for _, ref := range refs {
		fmt.Println(ref)
	}
	return nil
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ContinueOnError)
	var (
		dockerURL = fs.String("docker", "http://localhost:7000", "docker registry URL")
		image     = fs.String("image", "", "gear index image reference (name:tag)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	name, tag, err := splitRef(*image)
	if err != nil {
		return err
	}
	img, err := registry.Pull(registry.NewClient(*dockerURL, nil), name, tag)
	if err != nil {
		return err
	}
	ix, err := index.FromImage(img)
	if err != nil {
		return err
	}
	st, err := ix.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("index %s: %d dirs, %d files (%d unique), %d symlinks\n",
		ix.Reference(), st.Dirs, st.Files, st.UniqueFiles, st.Symlinks)
	fmt.Printf("index size %d B; referenced data %d B (%.2f%% metadata)\n",
		st.IndexBytes, st.DataBytes, 100*float64(st.IndexBytes)/float64(st.DataBytes))
	return nil
}

// cmdGC collects every fingerprint referenced by the Gear index images
// still in the Docker registry and asks the Gear registry to retain only
// those — the reference-driven file deletion that the three-level
// lifecycle decoupling calls for.
func cmdGC(args []string) error {
	fs := flag.NewFlagSet("gc", flag.ContinueOnError)
	var (
		dockerURL = fs.String("docker", "http://localhost:7000", "docker registry URL")
		gearURL   = fs.String("gear", "http://localhost:7001", "gear registry URL")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	docker := registry.NewClient(*dockerURL, nil)
	refs, err := docker.ListManifests()
	if err != nil {
		return err
	}
	keepSet := make(map[string]bool)
	var keep []hashing.Fingerprint
	indexImages := 0
	for _, ref := range refs {
		name, tag, err := splitRef(ref)
		if err != nil {
			return err
		}
		img, err := registry.Pull(docker, name, tag)
		if err != nil {
			return err
		}
		ix, err := index.FromImage(img)
		if err != nil {
			continue // not a gear index image
		}
		indexImages++
		for _, fileRef := range ix.Files() {
			if !keepSet[string(fileRef.Fingerprint)] {
				keepSet[string(fileRef.Fingerprint)] = true
				keep = append(keep, fileRef.Fingerprint)
			}
		}
	}
	removed, freed, err := gearregistry.NewClient(*gearURL, nil).GC(keep)
	if err != nil {
		return err
	}
	fmt.Printf("gc: %d index images reference %d files; removed %d orphans, freed %d B\n",
		indexImages, len(keep), removed, freed)
	return nil
}

// cmdPeers reports a cluster tracker's view of peer-to-peer
// distribution: how many Gear files are tracked across how many
// holders, and how much deployment traffic the fleet served from peers
// instead of the registry. It reads the tracker's telemetry snapshot
// (/peer/metrics), as gearctl stats does.
func cmdPeers(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("peers", flag.ContinueOnError)
	trackerURL := fs.String("tracker", "http://localhost:7002", "peer tracker URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, err := fetchSnapshot(*trackerURL, "/peer/metrics")
	if err != nil {
		return err
	}
	peerObjects, peerBytes := snap.Counter("tracker.peer.objects"), snap.Counter("tracker.peer.bytes")
	registryObjects, registryBytes := snap.Counter("tracker.registry.objects"), snap.Counter("tracker.registry.bytes")
	fmt.Fprintf(out, "tracker %s\n", *trackerURL)
	fmt.Fprintf(out, "tracked: %d gear files across %d holders (%d announces, %d withdraws)\n",
		snap.Gauge("tracker.fingerprints"), snap.Gauge("tracker.holders"),
		snap.Counter("tracker.announces"), snap.Counter("tracker.withdraws"))
	fmt.Fprintf(out, "served p2p:      %d files, %d B\n", peerObjects, peerBytes)
	fmt.Fprintf(out, "served registry: %d files, %d B\n", registryObjects, registryBytes)
	if total := peerBytes + registryBytes; total > 0 {
		fmt.Fprintf(out, "peer share: %.1f%% of %d B total\n", 100*float64(peerBytes)/float64(total), total)
	}
	return nil
}

// fetchSnapshot reads the telemetry snapshot a server answers on path.
func fetchSnapshot(url, path string) (telemetry.Snapshot, error) {
	reply, err := wire.NewClient("stats", url, nil, nil).Do(http.MethodGet, path, nil)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	snap, err := telemetry.DecodeSnapshot(reply.Body)
	if err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("stats: %w", err)
	}
	return snap, nil
}

// cmdProfile inspects a daemon's persisted startup profiles: which
// images have a recorded access trace, how big the traces are, and the
// exact fetch order a redeploy will replay. With no action flag it
// lists; -dump prints one profile's entries; -delete prunes one.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	var (
		libraryURL = fs.String("library", "http://localhost:7003", "profile library URL")
		dumpRef    = fs.String("dump", "", "print this image's startup profile (name:tag)")
		deleteRef  = fs.String("delete", "", "delete this image's startup profile (name:tag)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dumpRef != "" && *deleteRef != "" {
		return fmt.Errorf("profile: -dump and -delete are mutually exclusive")
	}
	client := prefetch.NewLibraryClient(*libraryURL, nil)
	switch {
	case *dumpRef != "":
		p, err := client.Dump(*dumpRef)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d entries, %d B in first-access order\n",
			p.ImageRef, len(p.Entries), p.TotalBytes())
		for i, e := range p.Entries {
			fmt.Printf("%4d %s %d\n", i, e.Fingerprint, e.Size)
		}
	case *deleteRef != "":
		if err := client.Delete(*deleteRef); err != nil {
			return err
		}
		fmt.Printf("deleted profile %s\n", *deleteRef)
	default:
		infos, err := client.List()
		if err != nil {
			return err
		}
		fmt.Printf("library %s: %d profiles\n", *libraryURL, len(infos))
		for _, info := range infos {
			if info.Entries < 0 {
				fmt.Printf("%s corrupt (%d B)\n", info.Ref, info.Bytes)
				continue
			}
			fmt.Printf("%s %d entries %d B\n", info.Ref, info.Entries, info.Bytes)
		}
	}
	return nil
}

// cmdStats fetches a server's unified telemetry snapshot (any endpoint
// serving telemetry.Verb: a gear-registry's or docker-registry's
// /metrics, a tracker's /peer/metrics, a library's /profile/metrics),
// optionally diffs it against a previously saved snapshot, and renders
// it as text or JSON. -save persists the raw (undiffed) snapshot so a
// later invocation can -diff against it.
func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	var (
		url      = fs.String("url", "http://localhost:7001", "server base URL")
		path     = fs.String("path", "/metrics", "metrics endpoint path")
		jsonOut  = fs.Bool("json", false, "emit the snapshot as JSON instead of text")
		diffFile = fs.String("diff", "", "subtract the snapshot saved in this file before printing")
		saveFile = fs.String("save", "", "write the raw snapshot (JSON) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, err := fetchSnapshot(*url, *path)
	if err != nil {
		return err
	}
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			return fmt.Errorf("stats: save: %w", err)
		}
		err = telemetry.EncodeSnapshot(f, snap)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("stats: save: %w", err)
		}
	}
	if *diffFile != "" {
		prev, err := os.ReadFile(*diffFile)
		if err != nil {
			return fmt.Errorf("stats: diff: %w", err)
		}
		prevSnap, err := telemetry.DecodeSnapshot(prev)
		if err != nil {
			return fmt.Errorf("stats: diff: %w", err)
		}
		snap = snap.Diff(prevSnap)
	}
	if *jsonOut {
		return telemetry.EncodeSnapshot(out, snap)
	}
	telemetry.WriteText(out, snap)
	return nil
}

func cmdDeploy(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("deploy", flag.ContinueOnError)
	var (
		dockerURL = fs.String("docker", "http://localhost:7000", "docker registry URL")
		gearURL   = fs.String("gear", "http://localhost:7001", "gear registry URL")
		image     = fs.String("image", "", "image reference (name:tag)")
		mode      = fs.String("mode", "gear", "deployment mode: gear or docker")
		mbps      = fs.Float64("mbps", 904, "simulated link bandwidth, Mbps")
		series    = fs.String("series", "", "workload series for the launch access list (default: derived from the image name)")
		scale     = fs.Float64("scale", 1.0, "workload scale (must match seed)")
		seed      = fs.Int64("seed", 20211107, "workload seed (must match seed)")
		trace     = fs.Bool("trace", false, "explain where the deploy's time went and print its slowest faults")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	name, tag, err := splitRef(*image)
	if err != nil {
		return err
	}
	seriesName := *series
	if seriesName == "" {
		seriesName = strings.TrimPrefix(name, gearPrefix)
	}
	co, err := corpus.New(corpus.Options{
		Seed: *seed, Scale: *scale, SeriesFilter: []string{seriesName},
	})
	if err != nil {
		return err
	}
	version := 0
	for i, t := range co.Series()[0].Tags() {
		if t == tag {
			version = i
			break
		}
	}
	items, err := co.NecessarySet(seriesName, version)
	if err != nil {
		return err
	}
	access := make([]string, len(items))
	for i, it := range items {
		access[i] = it.Path
	}
	compute, err := co.TaskCompute(seriesName)
	if err != nil {
		return err
	}

	daemon, err := dockersim.NewDaemon(
		registry.NewClient(*dockerURL, nil),
		gearregistry.NewClient(*gearURL, nil),
		dockersim.Options{
			Link: netsim.DefaultLAN().WithBandwidth(*mbps / 1000 * *scale),
		},
	)
	if err != nil {
		return err
	}

	var dep *dockersim.Deployment
	switch *mode {
	case "gear":
		dep, err = daemon.DeployGear(name, tag, access, compute)
	case "docker":
		dep, err = daemon.DeployDocker(name, tag, access, compute)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "deployed %s (%s mode) as %s\n", *image, *mode, dep.ContainerID)
	fmt.Fprintf(out, "pull: %v, %d B, %d requests\n",
		dep.Pull.Time.Round(time.Millisecond), dep.Pull.Bytes, dep.Pull.Requests)
	fmt.Fprintf(out, "run:  %v, %d B, %d requests\n",
		dep.Run.Time.Round(time.Millisecond), dep.Run.Bytes, dep.Run.Requests)
	fmt.Fprintf(out, "total: %v\n", dep.Total().Round(time.Millisecond))
	if *trace {
		dep.Explain(out)
		var faults []telemetry.Span
		for _, s := range dep.Trace() {
			if s.Op == "deploy.fault" {
				faults = append(faults, s)
			}
		}
		sort.SliceStable(faults, func(i, j int) bool { return faults[i].Dur > faults[j].Dur })
		fmt.Fprintln(out, "slowest faults:")
		for _, s := range faults[:min(len(faults), 10)] {
			fmt.Fprintf(out, "  %-45s %14v  %d B / %d req\n", s.Ref, s.Dur, s.Bytes, s.Objects)
		}
	}
	return nil
}

// cmdShards builds a deterministic in-process sharded registry tier
// from the synthetic workload and prints its placement: the consistent-
// hash ring's per-shard primary ownership, what each shard actually
// stores after replication, and the tier totals. Same workload flags as
// fleet, so the tier shown here is the one a sharded fleet run uses.
// With -readpass it also replays deterministic read passes over the
// pool and reports the per-replica read split and hedge activity.
func cmdShards(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shards", flag.ContinueOnError)
	var (
		shards   = fs.Int("shards", 4, "shard count")
		replicas = fs.Int("replicas", 2, "replication factor")
		series   = fs.String("series", "nginx", "workload image series")
		versions = fs.Int("versions", 4, "published versions")
		scale    = fs.Float64("scale", 0.25, "workload size scale factor")
		seed     = fs.Int64("seed", 20211107, "workload seed")
		readpass = fs.Int("readpass", 0, "deterministic read passes over the pool (0 = placement only)")
		balance  = fs.Bool("balance", false, "balance reads across replicas (power-of-two-choices)")
		hedge    = fs.Bool("hedge", false, "hedge slow reads to the next replica")
		slow     = fs.String("slow", "", "run read passes after the first with this shard at 10x service time (\"auto\" = busiest primary)")
		jsonOut  = fs.Bool("json", false, "emit the tier stats as JSON instead of the table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("shards: -shards %d: want at least 1", *shards)
	}
	wl, err := fleet.BuildWorkload(fleet.WorkloadOptions{
		Seed:     *seed,
		Scale:    *scale,
		Series:   *series,
		Versions: *versions,
	})
	if err != nil {
		return err
	}
	// A tier-only harness: the fleet's shard tier over its link classes,
	// seeded from the workload, with no node joined.
	h, err := fleet.New(wl, fleet.Options{
		Nodes:       1,
		Seed:        *seed,
		Shards:      *shards,
		Replication: *replicas,
		ReadBalance: *balance,
		ReadHedge:   *hedge,
	})
	if err != nil {
		return err
	}
	cluster, fps := h.Cluster(), wl.Gear.Fingerprints()
	for pass := 0; pass < *readpass; pass++ {
		if pass == 1 && *slow != "" {
			// The first pass always runs healthy so the latency
			// model has a baseline to call the straggler slow.
			victim := *slow
			if victim == "auto" {
				victim = cluster.BusiestShard()
			}
			if err := h.ShardTopology().SetServiceFactor(victim, 10); err != nil {
				return err
			}
		}
		for _, fp := range fps {
			if _, _, err := cluster.Download(fp); err != nil {
				return err
			}
		}
	}
	st := cluster.Stats()
	if *jsonOut {
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", data)
		return err
	}
	fmt.Fprintf(out, "shard ring: %d shards, replication %d, %d virtual nodes/shard\n",
		len(st.Shards), st.Replication, st.VirtualNodes)
	fmt.Fprintf(out, "%-10s %-5s %8s %12s %12s %7s %8s %11s\n",
		"shard", "state", "objects", "stored B", "logical B", "owned", "reads", "read share")
	for _, s := range st.Shards {
		state := "up"
		if s.Down {
			state = "down"
		}
		fmt.Fprintf(out, "%-10s %-5s %8d %12d %12d %6.1f%% %8d %10.1f%%\n",
			s.ID, state, s.Objects, s.StoredBytes, s.LogicalBytes, s.OwnedShare*100,
			s.Reads, s.ReadShare*100)
	}
	fmt.Fprintf(out, "tier: %d objects seeded, %d replica copies, %d B stored\n",
		len(fps), st.Objects, st.StoredBytes)
	fmt.Fprintf(out, "reads: %d served, %d balanced; hedges: %d fired, %d won, %d B extra egress\n",
		st.Reads, st.BalancedReads, st.HedgesFired, st.HedgesWon, st.HedgeWasteBytes)
	return nil
}

// cmdFleet runs one scripted fleet scenario in-process — a simulated
// cluster of dockersim daemons over a netsim topology — and prints its
// per-phase accounting. Every run is bit-reproducible from
// (scenario, seed).
func cmdFleet(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	scenario := fs.String("scenario", string(fleet.FlashCrowd), "scenario: flashcrowd, churn, failover, straggler, or mixed")
	nodes := fs.Int("nodes", 64, "fleet size")
	seed := fs.Int64("seed", 20211107, "workload and scenario seed")
	series := fs.String("series", "nginx", "workload image series")
	versions := fs.Int("versions", 4, "published versions the scenario rolls through")
	scale := fs.Float64("scale", 0.25, "workload size scale factor")
	peersOn := fs.Bool("peers", true, "enable peer-to-peer Gear-file exchange")
	shards := fs.Int("shards", 0, "back the fleet with a sharded registry tier of this size (0 = single registry)")
	replicas := fs.Int("replicas", 0, "replicas per object in the shard tier (0 = tier default)")
	balance := fs.Bool("balance", false, "balance shard reads across replicas (power-of-two-choices)")
	hedge := fs.Bool("hedge", false, "hedge slow shard reads to the next replica")
	jsonOut := fs.Bool("json", false, "emit the canonical result JSON instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := fleet.BuildWorkload(fleet.WorkloadOptions{
		Seed:     *seed,
		Scale:    *scale,
		Series:   *series,
		Versions: *versions,
	})
	if err != nil {
		return err
	}
	h, err := fleet.New(wl, fleet.Options{
		Nodes:       *nodes,
		Seed:        *seed,
		Peers:       *peersOn,
		Shards:      *shards,
		Replication: *replicas,
		ReadBalance: *balance,
		ReadHedge:   *hedge,
	})
	if err != nil {
		return err
	}
	res, err := h.Run(fleet.Kind(*scenario))
	if err != nil {
		return err
	}
	if *jsonOut {
		data, err := res.Canonical()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", data)
		return err
	}
	res.Print(out)
	fp, err := res.Fingerprint()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fingerprint: %s\n", fp)
	return nil
}
