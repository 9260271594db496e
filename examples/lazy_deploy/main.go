// Lazy deploy over real HTTP: both registries listen on loopback ports,
// a daemon talks to them through the HTTP clients, and three versions of
// a synthetic nginx image are deployed cold (empty cache) and warm
// (file-level sharing against the previous version), reproducing the
// client-side mechanics behind Fig 8 and Fig 9.
//
// Run with:
//
//	go run ./examples/lazy_deploy
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	gear "github.com/gear-image/gear"
)

// gearPrefix names the Gear form of an image beside the original.
const gearPrefix = "gear/"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// serve starts an HTTP handler on a loopback port and returns its URL.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("server: %v", err)
		}
	}()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

func run() error {
	// Registries, each behind real HTTP.
	dockerReg := gear.NewRegistry()
	fileReg := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
	dockerURL, stopDocker, err := serve(gear.RegistryHandler(dockerReg))
	if err != nil {
		return err
	}
	defer stopDocker()
	gearURL, stopGear, err := serve(gear.FileStoreHandler(fileReg))
	if err != nil {
		return err
	}
	defer stopGear()
	fmt.Printf("docker registry at %s\ngear registry at   %s\n", dockerURL, gearURL)

	// Publish three synthetic nginx versions: originals + Gear images.
	const versions = 3
	workload, err := gear.NewWorkload(gear.WorkloadOptions{
		Seed: 7, Scale: 0.5, SeriesFilter: []string{"nginx"}, MaxVersions: versions,
	})
	if err != nil {
		return err
	}
	dockerClient := gear.NewRegistryClient(dockerURL, nil)
	gearClient := gear.NewFileStoreClient(gearURL, nil)
	conv, err := gear.NewConverter(gear.ConverterOptions{IndexPrefix: gearPrefix})
	if err != nil {
		return err
	}
	for v := 0; v < versions; v++ {
		img, err := workload.Image("nginx", v)
		if err != nil {
			return err
		}
		if _, err := gear.PushImage(dockerClient, img); err != nil {
			return err
		}
		res, err := conv.Convert(img)
		if err != nil {
			return err
		}
		if _, _, err := gear.Publish(res, dockerClient, gearClient); err != nil {
			return err
		}
	}
	fmt.Printf("published %d versions of nginx (originals + gear images)\n\n", versions)

	// One daemon with a simulated 100 Mbps link (scaled 1/1000 with the
	// corpus, like the paper's bandwidth study).
	link := gear.DefaultLAN()
	link.BytesPerSecond = 100e6 / 8 / 1000 * 0.5
	daemon, err := gear.NewDaemon(dockerClient, gearClient, gear.DaemonOptions{Link: link})
	if err != nil {
		return err
	}

	deploy := func(tag string, version int) error {
		items, err := workload.NecessarySet("nginx", version)
		if err != nil {
			return err
		}
		access := make([]string, len(items))
		for i, it := range items {
			access[i] = it.Path
		}
		dep, err := daemon.DeployGear(gearPrefix+"nginx", tag, access, 100*time.Millisecond)
		if err != nil {
			return err
		}
		snap := daemon.Snapshot()
		hits, misses := snap.Counter("cache.hits"), snap.Counter("cache.misses")
		fmt.Printf("deploy %-14s pull %8d B in %8v | lazy run %8d B (%3d objects) in %8v | cache hit ratio %.2f\n",
			gearPrefix+"nginx:"+tag, dep.Pull.Bytes, dep.Pull.Time.Round(time.Millisecond),
			dep.Run.Bytes, dep.Run.Requests, dep.Run.Time.Round(time.Millisecond),
			float64(hits)/float64(hits+misses))
		return nil
	}

	fmt.Println("cold cache:")
	if err := deploy("v01", 0); err != nil {
		return err
	}
	fmt.Println("warm cache (shared files skip the wire):")
	if err := deploy("v02", 1); err != nil {
		return err
	}
	if err := deploy("v03", 2); err != nil {
		return err
	}

	// Docker baseline for contrast.
	dep, err := daemon.DeployDocker("nginx", "v03", nil, 100*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Printf("\ndocker baseline v03: pull %d B in %v (entire image before launch)\n",
		dep.Pull.Bytes, dep.Pull.Time.Round(time.Millisecond))
	return nil
}
