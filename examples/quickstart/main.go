// Quickstart: the whole Gear pipeline in one process.
//
// It authors a small web-server image, converts it to a Gear image
// (index + content-addressed files), publishes both halves, deploys a
// container that pulls only the index, reads files lazily, modifies the
// container, and commits it as a new Gear image.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	gear "github.com/gear-image/gear"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Author a root filesystem and package it as a Docker image.
	fs := gear.NewFS()
	for _, dir := range []string{"/bin", "/etc/web", "/srv"} {
		if err := fs.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	steps := map[string][]byte{
		"/bin/webd":       []byte("ELF...imagine a web server binary here..."),
		"/etc/web/conf":   []byte("listen = :8080\nroot = /srv\n"),
		"/srv/index.html": []byte("<h1>hello from gear</h1>"),
	}
	for p, data := range steps {
		if err := fs.WriteFile(p, data, 0o644); err != nil {
			return err
		}
	}
	img, err := gear.SingleLayerImage("webapp", "v1", fs, gear.ImageConfig{
		Entrypoint: []string{"/bin/webd"},
		Env:        []string{"PORT=8080"},
	})
	if err != nil {
		return err
	}
	fmt.Printf("built docker image %s: %d layer(s), %d B compressed\n",
		img.Manifest.Reference(), len(img.Layers), img.Manifest.TotalSize())

	// 2. Convert it into a Gear image.
	conv, err := gear.NewConverter(gear.ConverterOptions{})
	if err != nil {
		return err
	}
	res, err := conv.Convert(img)
	if err != nil {
		return err
	}
	ixStats, err := res.Index.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("converted in %v (modeled): index %d B for %d files (%d unique)\n",
		res.Timing.Total(), ixStats.IndexBytes, ixStats.Files, ixStats.UniqueFiles)

	// 3. Publish: index image to the Docker registry, files to the Gear
	// registry.
	docker := gear.NewRegistry()
	files := gear.NewFileStore(gear.FileStoreOptions{Compress: true})
	ixBytes, fileBytes, err := gear.Publish(res, docker, files)
	if err != nil {
		return err
	}
	fmt.Printf("published: %d B of index image, %d B of gear files\n", ixBytes, fileBytes)

	// 4. Deploy: the client needs only the tiny index before launch.
	daemon, err := gear.NewDaemon(docker, files, gear.DaemonOptions{})
	if err != nil {
		return err
	}
	dep, err := daemon.DeployGear("webapp", "v1", []string{"/bin/webd", "/etc/web/conf"}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("deployed %s: pull moved %d B, lazy run moved %d B\n",
		dep.Ref, dep.Pull.Bytes, dep.Run.Bytes)

	// 5. Read on demand — the first access faults the file in.
	page, latency, err := dep.Read("/srv/index.html")
	if err != nil {
		return err
	}
	fmt.Printf("read /srv/index.html (%d B) in %v: %q\n", len(page), latency, page)

	// 6. Modify and commit the container as webapp:v2.
	if err := dep.Write("/srv/new.html", []byte("<h1>v2 content</h1>")); err != nil {
		return err
	}
	ref, uploaded, err := dep.Commit("webapp", "v2")
	if err != nil {
		return err
	}
	fmt.Printf("committed %s: %d B uploaded (new gear files + index image)\n", ref, uploaded)

	// 7. The committed image deploys like any other.
	dep2, err := daemon.DeployGear("webapp", "v2", []string{"/srv/new.html"}, 0)
	if err != nil {
		return err
	}
	page2, _, err := dep2.Read("/srv/new.html")
	if err != nil {
		return err
	}
	fmt.Printf("v2 container serves %q (transferred %d B — everything else was cached)\n",
		page2, dep2.Pull.Bytes+dep2.Run.Bytes)
	return nil
}
