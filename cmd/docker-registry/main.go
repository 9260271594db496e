// Command docker-registry runs a standalone Docker-style registry: named
// manifests plus content-addressed compressed layers, deduplicated at
// layer granularity. It stores both regular images and the single-layer
// Gear index images the converter produces.
//
//	GET/PUT /v2/manifests/{name}/{tag}
//	GET     /v2/manifests/            (list references)
//	HEAD/GET/PUT /v2/blobs/{digest}
//
// Usage:
//
//	docker-registry -addr :7000
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "docker-registry:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":7000", "listen address")
	flag.Parse()

	reg := registry.New()
	mux := http.NewServeMux()
	mux.Handle("/v2/", registry.NewHandler(reg))
	mux.Handle("/metrics", wire.NewHandler(nil, telemetry.Verb("/metrics", reg)))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("docker-registry listening on %s", ln.Addr())
	return wire.Serve(ln, mux)
}
