// Version rollout: a miniature of the paper's Fig 10 — one client
// deploys successive Tomcat versions under Docker (eager layer pull),
// Slacker (lazy 4 KB block paging, no sharing), and Gear (lazy file
// faults with a shared local cache), and prints each deployment's time
// at two link speeds.
//
// Run with:
//
//	go run ./examples/version_rollout
package main

import (
	"fmt"
	"log"
	"time"

	gear "github.com/gear-image/gear"
)

const (
	series   = "tomcat"
	versions = 8
	scale    = 0.5
	// gearPrefix names the Gear form of an image beside the original.
	gearPrefix = "gear/"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	workload, err := gear.NewWorkload(gear.WorkloadOptions{
		Seed: 11, Scale: scale, SeriesFilter: []string{series}, MaxVersions: versions,
	})
	if err != nil {
		return err
	}

	// Publish all versions to all three systems.
	dockerReg := gear.NewRegistry()
	fileReg := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
	blockSrv := gear.NewSlackerServer()
	conv, err := gear.NewConverter(gear.ConverterOptions{IndexPrefix: gearPrefix})
	if err != nil {
		return err
	}
	tags := workload.Series()[0].Tags()
	for v := 0; v < versions; v++ {
		img, err := workload.Image(series, v)
		if err != nil {
			return err
		}
		if _, err := gear.PushImage(dockerReg, img); err != nil {
			return err
		}
		res, err := conv.Convert(img)
		if err != nil {
			return err
		}
		if _, _, err := gear.Publish(res, dockerReg, fileReg); err != nil {
			return err
		}
		bi, err := gear.SlackerImage(img, 512)
		if err != nil {
			return err
		}
		blockSrv.Put(bi)
	}

	compute, err := workload.TaskCompute(series)
	if err != nil {
		return err
	}
	for _, mbps := range []float64{1000, 100} {
		link := gear.DefaultLAN()
		link.BytesPerSecond = mbps * 1e6 / 8 / 1000 * scale // scaled with the corpus

		// One persistent daemon per system: local state accumulates
		// across the rollout, exactly like the paper's single client.
		mk := func() (*gear.Daemon, error) {
			d, err := gear.NewDaemon(dockerReg, fileReg, gear.DaemonOptions{Link: link})
			if err == nil {
				d.ConfigureSlacker(blockSrv)
			}
			return d, err
		}
		dockerD, err := mk()
		if err != nil {
			return err
		}
		slackerD, err := mk()
		if err != nil {
			return err
		}
		gearD, err := mk()
		if err != nil {
			return err
		}

		fmt.Printf("\n-- %s rollout at %g Mbps (paper scale) --\n", series, mbps)
		fmt.Printf("%-8s %12s %12s %12s\n", "version", "docker", "slacker", "gear")
		var sumD, sumS, sumG time.Duration
		for v := 0; v < versions; v++ {
			items, err := workload.NecessarySet(series, v)
			if err != nil {
				return err
			}
			access := make([]string, len(items))
			for i, it := range items {
				access[i] = it.Path
			}
			dd, err := dockerD.DeployDocker(series, tags[v], access, compute)
			if err != nil {
				return err
			}
			sd, err := slackerD.DeploySlacker(series, tags[v], access, compute)
			if err != nil {
				return err
			}
			gd, err := gearD.DeployGear(gearPrefix+series, tags[v], access, compute)
			if err != nil {
				return err
			}
			fmt.Printf("%-8s %12s %12s %12s\n", tags[v],
				dd.Total().Round(time.Millisecond),
				sd.Total().Round(time.Millisecond),
				gd.Total().Round(time.Millisecond))
			sumD += dd.Total()
			sumS += sd.Total()
			sumG += gd.Total()
		}
		n := time.Duration(versions)
		fmt.Printf("%-8s %12s %12s %12s\n", "avg",
			(sumD / n).Round(time.Millisecond),
			(sumS / n).Round(time.Millisecond),
			(sumG / n).Round(time.Millisecond))
	}
	fmt.Println("\nGear keeps improving across versions (file-level sharing); Slacker cannot share;")
	fmt.Println("Docker recovers some ground only when whole layers are identical.")
	return nil
}
