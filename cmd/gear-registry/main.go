// Command gear-registry runs a standalone Gear file server — the Gear
// Registry of §III-C/§IV: a content-addressed store of Gear files with
// three HTTP verbs:
//
//	GET /gear/query/{fingerprint}
//	PUT /gear/upload/{fingerprint}
//	GET /gear/download/{fingerprint}
//
// Usage:
//
//	gear-registry -addr :7001 -compress
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gear-registry:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":7001", "listen address")
		compress = flag.Bool("compress", true, "store objects gzip-compressed")
	)
	flag.Parse()

	reg := gearregistry.New(gearregistry.Options{Compress: *compress})
	mux := http.NewServeMux()
	mux.Handle("/gear/", gearregistry.NewHandler(reg))
	mux.Handle("/metrics", wire.NewHandler(nil, telemetry.Verb("/metrics", reg)))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("gear-registry listening on %s (compress=%v)", ln.Addr(), *compress)
	return wire.Serve(ln, mux)
}
