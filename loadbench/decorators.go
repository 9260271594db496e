package main

import (
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/registry"
)

// The decorators time each layer from outside: one span per call into a
// registry client, one per HTTP round trip, one per handler invocation.
// They are installed only in the traced run; the handler decorator also
// counts requests and response bytes, which it does in every run so the
// traced and untraced paths can be compared request for request.

// stack ties together the decorators of one logical client — its two
// registry clients and their shared transport — so a round trip can find
// the client call that caused it and the handler the round trip.
type stack struct {
	tr *tracer
	// resolve names the op a client call belongs to. key is what the
	// call is about: a fingerprint, a digest, "name/tag", or a verb.
	resolve func(key string) *opCtx

	mu      sync.Mutex
	pending map[string]pendingCall
}

// pendingCall is a client call waiting for its round trip.
type pendingCall struct{ op, span uint64 }

func newStack(tr *tracer, resolve func(key string) *opCtx) *stack {
	return &stack{tr: tr, resolve: resolve, pending: make(map[string]pendingCall)}
}

type clientCall struct {
	st  *stack
	key string
	s   span
}

func (st *stack) enter(layer, name, key string) clientCall {
	s := span{ID: st.tr.id(), Layer: layer, Name: name}
	if x := st.resolve(key); x != nil {
		s.Op, s.Parent = x.id, x.cur.Load()
	}
	st.mu.Lock()
	st.pending[key] = pendingCall{op: s.Op, span: s.ID}
	st.mu.Unlock()
	s.Start = nanotime()
	return clientCall{st: st, key: key, s: s}
}

func (c clientCall) exit(bytes int64, err error) {
	c.s.End = nanotime()
	c.s.Bytes = bytes
	if err != nil {
		c.s.Err = err.Error()
	}
	c.st.mu.Lock()
	if c.st.pending[c.key].span == c.s.ID {
		delete(c.st.pending, c.key)
	}
	c.st.mu.Unlock()
	c.st.tr.record(c.s)
}

// match finds the pending client call whose key the request path names.
func (st *stack) match(path string) pendingCall {
	st.mu.Lock()
	defer st.mu.Unlock()
	for key, p := range st.pending {
		if strings.Contains(path, key) {
			return p
		}
	}
	return pendingCall{}
}

// gearVerbs is the full verb ladder of the Gear registry client. The
// store type-asserts its Remote for the three optional verbs, so a
// decorator that dropped one would silently change the path measured;
// requiring all four of the inner store makes that a compile error.
type gearVerbs interface {
	gearregistry.Store
	gearregistry.BatchQuerier
	gearregistry.BatchDownloader
	gearregistry.RangeDownloader
}

type tracedGear struct {
	inner gearVerbs
	st    *stack
}

var _ gearVerbs = (*tracedGear)(nil)

func (g *tracedGear) Query(fp hashing.Fingerprint) (bool, error) {
	c := g.st.enter(layerGearCli, "query", string(fp))
	ok, err := g.inner.Query(fp)
	c.exit(0, err)
	return ok, err
}

func (g *tracedGear) Upload(fp hashing.Fingerprint, data []byte) error {
	c := g.st.enter(layerGearCli, "upload", string(fp))
	err := g.inner.Upload(fp, data)
	c.exit(int64(len(data)), err)
	return err
}

func (g *tracedGear) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	c := g.st.enter(layerGearCli, "download", string(fp))
	data, wire, err := g.inner.Download(fp)
	c.exit(wire, err)
	return data, wire, err
}

func (g *tracedGear) QueryBatch(fps []hashing.Fingerprint) ([]bool, error) {
	c := g.st.enter(layerGearCli, "querybatch", "/gear/querybatch")
	present, err := g.inner.QueryBatch(fps)
	c.exit(0, err)
	return present, err
}

func (g *tracedGear) DownloadBatch(fps []hashing.Fingerprint) ([][]byte, int64, error) {
	c := g.st.enter(layerGearCli, "batch", "/gear/batch")
	payloads, wire, err := g.inner.DownloadBatch(fps)
	c.exit(wire, err)
	return payloads, wire, err
}

func (g *tracedGear) DownloadRange(fp hashing.Fingerprint, off, n int64) ([]byte, int64, error) {
	c := g.st.enter(layerGearCli, "range", rangeKey(fp, off, n))
	data, wire, err := g.inner.DownloadRange(fp, off, n)
	c.exit(wire, err)
	return data, wire, err
}

// rangeKey is the tail of the range verb's URL path, so two clients
// reading different ranges of one object stay distinguishable.
func rangeKey(fp hashing.Fingerprint, off, n int64) string {
	return string(fp) + "/" + strconv.FormatInt(off, 10) + "/" + strconv.FormatInt(n, 10)
}

type tracedDocker struct {
	inner registry.Store
	st    *stack
}

var _ registry.Store = (*tracedDocker)(nil)

func (d *tracedDocker) PutManifest(m *imagefmt.Manifest) error {
	c := d.st.enter(layerDockerCli, "put_manifest", m.Name+"/"+m.Tag)
	err := d.inner.PutManifest(m)
	c.exit(0, err)
	return err
}

func (d *tracedDocker) GetManifest(name, tag string) (*imagefmt.Manifest, error) {
	c := d.st.enter(layerDockerCli, "get_manifest", name+"/"+tag)
	m, err := d.inner.GetManifest(name, tag)
	c.exit(0, err)
	return m, err
}

func (d *tracedDocker) ListManifests() ([]string, error) {
	c := d.st.enter(layerDockerCli, "list_manifests", "/v2/manifests/")
	refs, err := d.inner.ListManifests()
	c.exit(0, err)
	return refs, err
}

func (d *tracedDocker) HasBlob(dg hashing.Digest) (bool, error) {
	c := d.st.enter(layerDockerCli, "has_blob", string(dg))
	ok, err := d.inner.HasBlob(dg)
	c.exit(0, err)
	return ok, err
}

func (d *tracedDocker) PutBlob(dg hashing.Digest, data []byte) error {
	c := d.st.enter(layerDockerCli, "put_blob", string(dg))
	err := d.inner.PutBlob(dg, data)
	c.exit(int64(len(data)), err)
	return err
}

func (d *tracedDocker) GetBlob(dg hashing.Digest) ([]byte, error) {
	c := d.st.enter(layerDockerCli, "get_blob", string(dg))
	data, err := d.inner.GetBlob(dg)
	c.exit(int64(len(data)), err)
	return data, err
}

// tracedTransport records one span per HTTP round trip, from the request
// leaving to the response body being closed, and tells the handler which
// span it serves through request headers.
type tracedTransport struct {
	base http.RoundTripper
	st   *stack
	wire *wireCounters
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.st.match(req.URL.Path)
	s := span{Op: p.op, ID: t.st.tr.id(), Parent: p.span, Layer: layerWire, Name: req.Method}
	ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		t.wire.conns.Add(1)
		if info.Reused {
			t.wire.reused.Add(1)
		}
	}}
	// A RoundTripper must not touch its caller's request: copy it, and
	// give the copy its own header map before adding to it.
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
	if req.Header = req.Header.Clone(); req.Header == nil {
		req.Header = make(http.Header, 2)
	}
	req.Header[traceHeaderSpan] = []string{strconv.FormatUint(s.ID, 10)}
	req.Header[traceHeaderOp] = []string{strconv.FormatUint(s.Op, 10)}
	s.Bytes = max(req.ContentLength, 0)
	s.Start = nanotime()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = nanotime()
		s.Err = err.Error()
		t.st.tr.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.st.tr, s: s}
	return resp, nil
}

// spanBody ends the round-trip span when the caller is done with the
// response: the wire is busy until the last body byte is read.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = nanotime()
		b.tr.record(b.s)
	})
}

// countingHandler wraps a registry's http.Handler. It always counts
// requests and, given somewhere to, response body bytes; with a tracer
// it also records the handler span, parented on the round trip named in
// the request headers.
type countingHandler struct {
	inner http.Handler
	layer string
	tr    *tracer

	requests  *atomic.Int64
	respBytes *atomic.Int64 // nil: not counted
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	cw := &countingWriter{ResponseWriter: w}
	defer func() {
		if h.respBytes != nil {
			h.respBytes.Add(cw.n)
		}
	}()
	if h.tr == nil {
		h.inner.ServeHTTP(cw, r)
		return
	}
	s := span{ID: h.tr.id(), Layer: h.layer, Name: r.Method + " " + verbOf(r.URL.Path)}
	s.Parent, _ = strconv.ParseUint(r.Header.Get(traceHeaderSpan), 10, 64)
	s.Op, _ = strconv.ParseUint(r.Header.Get(traceHeaderOp), 10, 64)
	s.Start = nanotime()
	h.inner.ServeHTTP(cw, r)
	s.End = nanotime()
	s.Bytes = cw.n
	h.tr.record(s)
}

// verbOf keeps the first two path elements: "/gear/download", "/v2/blobs".
func verbOf(path string) string {
	parts := strings.SplitN(strings.TrimPrefix(path, "/"), "/", 3)
	if len(parts) > 2 {
		parts = parts[:2]
	}
	return "/" + strings.Join(parts, "/")
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
