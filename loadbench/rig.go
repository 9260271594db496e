package main

import (
	"fmt"
	"net"
	"net/http"
	"sync/atomic"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/registry"
)

// rig is the server side of a run: a Docker registry and a Gear file
// pool (Compress: true) behind their real HTTP handlers, each on its own
// loopback listener in this process. Traffic crosses the host loopback,
// never a real link.
type rig struct {
	docker *registry.Registry
	pool   *gearregistry.Registry
	tr     *tracer

	dockerURL, gearURL string
	servers            []*http.Server
	counts             *wireCounters
}

// wireCounters count what crosses the decorated boundaries. A scenario
// owns one and hands it to every rig it builds, so the counts run on
// when a workload replaces its registries between rounds.
type wireCounters struct {
	gearRequests, gearRespBytes, dockerRequests atomic.Int64
	// conns counts connections handed to requests by a traced transport,
	// reused those that had carried a request before.
	conns, reused atomic.Int64
}

// wireCounts is a reading of the counters.
type wireCounts struct {
	gearRequests, gearRespBytes, dockerRequests int64
	conns, reused                               int64
}

func (c *wireCounters) read() wireCounts {
	return wireCounts{
		gearRequests:   c.gearRequests.Load(),
		gearRespBytes:  c.gearRespBytes.Load(),
		dockerRequests: c.dockerRequests.Load(),
		conns:          c.conns.Load(),
		reused:         c.reused.Load(),
	}
}

func (a wireCounts) minus(b wireCounts) wireCounts {
	return wireCounts{
		gearRequests:   a.gearRequests - b.gearRequests,
		gearRespBytes:  a.gearRespBytes - b.gearRespBytes,
		dockerRequests: a.dockerRequests - b.dockerRequests,
		conns:          a.conns - b.conns,
		reused:         a.reused - b.reused,
	}
}

func newRig(tr *tracer, wire *wireCounters) (*rig, error) {
	r := &rig{
		docker: registry.New(),
		pool:   gearregistry.New(gearregistry.Options{Compress: true}),
		tr:     tr,
		counts: wire,
	}
	dockerH := &countingHandler{inner: registry.NewHandler(r.docker), layer: layerDockerSrv, tr: tr,
		requests: &wire.dockerRequests}
	gearH := &countingHandler{inner: gearregistry.NewHandler(r.pool), layer: layerGearSrv, tr: tr,
		requests: &wire.gearRequests, respBytes: &wire.gearRespBytes}
	var err error
	if r.dockerURL, err = r.serve(dockerH); err != nil {
		return nil, err
	}
	if r.gearURL, err = r.serve(gearH); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	r.servers = append(r.servers, srv)
	// Serve returns ErrServerClosed once close shuts the server down.
	go func() { _ = srv.Serve(l) }()
	return "http://" + l.Addr().String(), nil
}

// close shuts both servers down, dropping any open connection.
func (r *rig) close() {
	for _, srv := range r.servers {
		_ = srv.Close()
	}
}

// clients returns registry clients over HTTP. Untraced (the rig has no
// tracer) they are the plain clients on the default http.Client; traced
// they are wrapped in the span decorators, sharing one stack whose
// resolver says which op a call belongs to.
func (r *rig) clients(resolve func(key string) *opCtx) (registry.Store, gearregistry.Store) {
	if r.tr == nil {
		return registry.NewClient(r.dockerURL, nil), gearregistry.NewClient(r.gearURL, nil)
	}
	st := newStack(r.tr, resolve)
	hc := &http.Client{Transport: &tracedTransport{
		base: http.DefaultTransport, st: st, wire: r.counts,
	}}
	return &tracedDocker{inner: registry.NewClient(r.dockerURL, hc), st: st},
		&tracedGear{inner: gearregistry.NewClient(r.gearURL, hc), st: st}
}
