package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A client brings its own transport or gets this package's: a client
// without one — one that only sets a Timeout, say — keeps that timeout,
// and is itself left as it was.
func TestClientTransportOwnership(t *testing.T) {
	if c := NewClient("test client", "http://registry", nil, nil); c.own != ownTransport {
		t.Errorf("nil client: transport %v, want the package's", c.own)
	}
	timed := &http.Client{Timeout: 3 * time.Second}
	c := NewClient("test client", "http://registry", timed, nil)
	if c.own != ownTransport || c.timeout != 3*time.Second {
		t.Errorf("client without a transport: transport %v, timeout %v; want the package's, under 3s", c.own, c.timeout)
	}
	if timed.Transport != nil {
		t.Error("the caller's client was written to")
	}
	own := &http.Transport{}
	if c := NewClient("test client", "http://registry", &http.Client{Transport: own}, nil); c.own != nil || c.http.Transport != own {
		t.Errorf("client with a transport: transport %v, want its own", c.http.Transport)
	}
}

// ownClient is a client of url carried by tr under timeout.
func ownClient(url string, tr *transport, timeout time.Duration) *Client {
	c := NewClient("test client", url, &http.Client{Timeout: timeout}, nil)
	c.own = tr
	return c
}

// baseURLs are the forms of base URL the request tests build clients of.
var baseURLs = []string{"http://registry:5000", "http://registry:5000/", "http://registry/mirror"}

// A request is what http.NewRequest builds of the same method, URL and
// body, GetBody included — a PUT that net/http sends again, after a
// kept-alive connection turned out closed, has its body again. This is
// what a caller's transport is handed.
func TestRequestIsWhatNewRequestBuilds(t *testing.T) {
	for _, base := range baseURLs {
		c := NewClient("test client", base, nil, nil)
		for _, tc := range []struct {
			method, path string
			body         []byte
		}{
			{http.MethodGet, "/gear/download/d41d8cd98f00b204e9800998ecf8427e", nil},
			{http.MethodPut, "/v2/manifests/gear/nginx/v01", []byte("{}")},
			{http.MethodPost, "/profile/delete/gear/nginx:v01", nil},
			{http.MethodHead, "/v2/blobs/sha256:00", []byte{}},
		} {
			var body io.Reader
			if len(tc.body) > 0 {
				body = bytes.NewReader(tc.body)
			}
			want, err := http.NewRequest(tc.method, c.base.String()+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			got := c.request(tc.method, tc.path, tc.body)
			if got.Method != want.Method || got.URL.String() != want.URL.String() || got.URL.RequestURI() != want.URL.RequestURI() ||
				got.Host != want.Host || got.Proto != want.Proto || got.ProtoMajor != want.ProtoMajor || got.ProtoMinor != want.ProtoMinor ||
				got.ContentLength != want.ContentLength || (got.Body == nil) != (want.Body == nil) || (got.GetBody == nil) != (want.GetBody == nil) ||
				got.Header == nil || len(got.Header) != 0 {
				t.Errorf("%s %s%s: built %+v, http.NewRequest builds %+v", tc.method, base, tc.path, got, want)
			}
			if got.GetBody == nil {
				continue
			}
			again, _ := got.GetBody()
			for _, r := range []io.Reader{got.Body, again} {
				if sent, _ := io.ReadAll(r); !bytes.Equal(sent, tc.body) {
					t.Errorf("%s %s: body %q, want %q", tc.method, tc.path, sent, tc.body)
				}
			}
		}
	}
	for _, base := range []string{"http://bad host", ""} {
		c := NewClient("test client", base, nil, nil)
		if _, err := c.Do(http.MethodGet, "/x", nil); err == nil {
			t.Errorf("base URL %q carried a request", base)
		}
	}
}

// The codec's request is byte for byte what (*http.Request).Write writes
// of the request a caller's transport is handed, with the same header
// set on it: for every base URL form, method, body (none, empty, some),
// header set the protocols send, and a path holding bytes that need
// escaping. So the server parses exactly what it parsed of net/http's.
func TestRequestBytesAreNetHTTPs(t *testing.T) {
	headers := [][]string{
		nil,
		{"Content-Type", "text/plain"},
		{"Content-Type", "text/plain", AcceptHeader, "gzip"},
		{"Content-Type", "text/plain", AcceptHeader, "gzip", EncodingHeader, "gzip"},
		// Canonicalised, the last value of a name kept, names net/http
		// writes itself dropped, values trimmed.
		{"x-gear-b", " two ", "content-type", "text/plain", "X-Gear-A", "one", "Content-Type", "application/json", "Content-Length", "9"},
	}
	paths := []string{"/gear/download/d41d8cd98f00b204e9800998ecf8427e", "/profile/dump/gear/nginx:v01", "/a b/%zz?q=1#frag/é\x01~$&+,;=@"}
	for _, base := range baseURLs {
		c := NewClient("test client", base, nil, nil)
		for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete} {
			for _, body := range [][]byte{nil, {}, []byte("a body")} {
				for _, header := range headers {
					for _, path := range paths {
						req := c.request(method, path, body)
						for i := 0; i+1 < len(header); i += 2 {
							req.Header.Set(header[i], header[i+1])
						}
						var want bytes.Buffer
						if err := req.Write(&want); err != nil {
							t.Fatal(err)
						}
						if got := append(c.appendRequest(nil, method, path, body, header), body...); !bytes.Equal(got, want.Bytes()) {
							t.Errorf("%s %s%s with %q, body %q:\n got %q\nwant %q", method, base, path, header, body, got, want.Bytes())
						}
					}
				}
			}
		}
	}
}

// counted counts the connections a listener accepts.
type counted struct {
	net.Listener
	accepts atomic.Int32
}

func (l *counted) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// The idle pool holds a whole wave of parallel fetches: eight requests
// in flight at once dial eight connections, and the eight after them
// none. (net/http's default keeps two a server, and the second wave
// dials six.) The requests are uploads, large and small, which cross
// those connections whole, and each reply carries a body: a connection
// is back on the idle list by the time the call that read its reply
// returns.
func TestSecondWaveDialsNothing(t *testing.T) {
	const wave = 8
	var arrived sync.WaitGroup
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		// Nobody is answered before the whole wave is in flight.
		arrived.Done()
		arrived.Wait()
		if want := r.URL.Path[1:]; err != nil || len(body) == 0 || string(bytes.TrimLeft(body, want[:1])) != "" || strconv.Itoa(len(body)) != want[1:] {
			http.Error(w, "another body than was sent", http.StatusBadRequest)
			return
		}
		Respond(w, "text/plain", []byte("stored "), []byte(r.URL.Path[1:]))
	}))
	ln := &counted{Listener: srv.Listener}
	srv.Listener = ln
	srv.Start()
	defer srv.Close()

	c := NewClient("test client", srv.URL, nil, nil)
	for round := 0; round < 2; round++ {
		arrived.Add(wave)
		var wg sync.WaitGroup
		for i := 0; i < wave; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := bytes.Repeat([]byte{byte('a' + i)}, 100<<(2*i)) // 100 B to 1.6 MB
				path := fmt.Sprintf("/%c%d", body[0], len(body))
				if r, err := c.Do(http.MethodPut, path, body); err != nil || string(r.Body) != "stored "+path[1:] {
					t.Errorf("round %d: a %d-byte upload: %v", round, len(body), err)
				}
			}(i)
		}
		wg.Wait()
		if got := ln.accepts.Load(); got != wave {
			t.Fatalf("round %d: %d connections accepted so far, want %d", round, got, wave)
		}
	}
}

// served starts a server of h that counts the connections it accepts,
// and a client of it on a transport of its own.
func served(t testing.TB, h http.HandlerFunc, timeout time.Duration) (*httptest.Server, *counted, *transport, *Client) {
	srv := httptest.NewUnstartedServer(h)
	ln := &counted{Listener: srv.Listener}
	srv.Listener = ln
	srv.Start()
	t.Cleanup(srv.Close)
	tr := new(transport)
	return srv, ln, tr, ownClient(srv.URL, tr, timeout)
}

// idleTo is how many connections tr keeps idle to srv.
func (tr *transport) idleTo(srv *httptest.Server) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.idle[srv.Listener.Addr().String()])
}

// A server that closes its idle connections does not fail the requests
// after it: the closed connection is found out before a request is
// written to it, and each request, whatever its method, goes out on a
// new connection and reaches the handler once, a body included.
func TestServerClosedIdleConnection(t *testing.T) {
	var hits atomic.Int32
	srv, ln, _, c := served(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		Respond(w, "text/plain", []byte(r.Method), body)
	}, 0)
	for i, req := range []struct {
		method string
		body   string
	}{{http.MethodGet, ""}, {http.MethodPut, "sent once"}, {http.MethodPost, "and once"}, {http.MethodGet, ""}} {
		r, err := c.Do(req.method, "/x", []byte(req.body))
		if err != nil || string(r.Body) != req.method+req.body {
			t.Fatalf("request %d (%s) after the server closed its connection: %v", i, req.method, err)
		}
		if got, want := hits.Load(), int32(i+1); got != want {
			t.Errorf("request %d: the handler has served %d requests, want %d", i, got, want)
		}
		if got, want := ln.accepts.Load(), int32(i+1); got != want {
			t.Errorf("request %d: %d connections accepted, want %d", i, got, want)
		}
		srv.CloseClientConnections()
	}
}

// Nothing else is sent twice. A server that hangs up on a request
// without a word looks, on a kept-alive connection, like one that closed
// it as the request went out, so a GET is sent once more; on a new
// connection it is not. Nor is a POST or a PUT — the handler may have
// done what it asks.
func TestNothingElseIsSentTwice(t *testing.T) {
	var hits atomic.Int32
	_, _, _, c := served(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.URL.Path == "/hangup" {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				_ = conn.Close()
			}
			return
		}
		Respond(w, "text/plain", []byte("ok"))
	}, 0)
	for i, step := range []struct {
		method, path string
		fail         bool
		hits         int32 // requests the handler has seen once the call returns
	}{
		{http.MethodGet, "/ok", false, 1},
		{http.MethodGet, "/hangup", true, 3}, // on the connection /ok left idle, then on a new one
		{http.MethodGet, "/hangup", true, 4}, // on a new connection
		{http.MethodGet, "/ok", false, 5},
		{http.MethodPost, "/hangup", true, 6}, // on the kept-alive connection
		{http.MethodGet, "/ok", false, 7},
		{http.MethodPut, "/hangup", true, 8},
	} {
		_, err := c.Do(step.method, step.path, []byte("served once"))
		if (err != nil) != step.fail {
			t.Fatalf("step %d (%s %s): error %v", i, step.method, step.path, err)
		}
		if got := hits.Load(); got != step.hits {
			t.Errorf("step %d (%s %s): the handler has seen %d requests, want %d", i, step.method, step.path, got, step.hits)
		}
	}
}

// A connection is reused once its reply has been read to the end — by
// the caller, or by the drain after it — and the reply did not ask to
// close it: a reply that says Connection: close costs the next request a
// new connection.
func TestConnectionReuse(t *testing.T) {
	srv, ln, tr, c := served(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/close" {
			w.Header().Set("Connection", "close")
		}
		Respond(w, "text/plain", bytes.Repeat([]byte("x"), 64<<10))
	}, 0)
	for i, step := range []struct {
		path    string
		read    int64 // bytes of the body the caller reads; -1 for all of it
		accepts int32 // connections accepted once the request is sent
		idle    int   // connections idle once the call returns
	}{
		{"/whole", -1, 1, 1},
		{"/whole", -1, 1, 1},
		{"/part", 1, 1, 1},
		{"/half", 32 << 10, 1, 1}, // past what the read buffer holds
		{"/none", 0, 1, 1},
		{"/close", -1, 1, 0},
		{"/whole", -1, 2, 1},
	} {
		err := c.Stream(http.MethodGet, step.path, nil, func(b *Body) error {
			if step.read < 0 {
				_, err := b.Bytes()
				return err
			}
			_, err := io.CopyN(io.Discard, b.br, step.read)
			return err
		})
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, step.path, err)
		}
		if got := ln.accepts.Load(); got != step.accepts {
			t.Errorf("step %d (%s): %d connections accepted, want %d", i, step.path, got, step.accepts)
		}
		if got := tr.idleTo(srv); got != step.idle {
			t.Errorf("step %d (%s): %d connections idle, want %d", i, step.path, got, step.idle)
		}
	}
}

// A server that stalls, before its reply or in the middle of its body,
// does not hold a call past hc.Timeout, which arrives as the deadline of
// the connection; the connection is not reused.
func TestStalledReplyTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	srv, ln, tr, c := served(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/stall/head":
		case "/stall/body":
			w.Header().Set("Content-Length", "1000")
			_, _ = w.Write([]byte("ten bytes."))
			w.(http.Flusher).Flush()
		default:
			Respond(w, "text/plain", []byte("ok"))
			return
		}
		<-r.Context().Done() // the client has gone
	}, timeout)
	for i, path := range []string{"/stall/head", "/stall/body"} {
		if _, err := c.Do(http.MethodGet, "/ok", nil); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err := c.Do(http.MethodGet, path, nil)
		if took := time.Since(start); err == nil || took > 2*timeout {
			t.Errorf("%s under a %v timeout: error %v after %v", path, timeout, err, took)
		}
		if got := tr.idleTo(srv); got != 0 {
			t.Errorf("%s: %d connections idle after the timeout, want 0", path, got)
		}
		if got, want := ln.accepts.Load(), int32(i+1); got != want {
			t.Errorf("%s: %d connections accepted, want %d", path, got, want)
		}
	}
}

// A request's deadline ends with it: a connection whose last request's
// deadline passed while it sat idle is reused, by a request under a
// deadline and by one without.
func TestDeadlineEndsWithItsRequest(t *testing.T) {
	const timeout = 50 * time.Millisecond
	srv, ln, tr, c := served(t, func(w http.ResponseWriter, r *http.Request) {
		Respond(w, "text/plain", []byte("ok"))
	}, timeout)
	untimed := ownClient(srv.URL, tr, 0)
	for i, cl := range []*Client{c, c, untimed} {
		if _, err := cl.Do(http.MethodGet, "/x", nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		time.Sleep(2 * timeout)
	}
	if got := ln.accepts.Load(); got != 1 {
		t.Errorf("%d connections accepted, want 1", got)
	}
}

// The transport speaks plain HTTP only, and says so without dialling
// anything: a caller that needs TLS brings its own.
func TestSchemeOtherThanHTTP(t *testing.T) {
	_, err := NewClient("test client", "https://registry.invalid", nil, nil).Do(http.MethodGet, "/x", nil)
	if err == nil || !strings.Contains(err.Error(), `"https"`) {
		t.Errorf("https base URL: error %v, want one that names the scheme", err)
	}
}

// However many connections a burst of requests dials, at most idleConns
// of them are kept idle afterwards.
func TestIdleListBound(t *testing.T) {
	const burst = 2 * idleConns
	var arrived sync.WaitGroup
	arrived.Add(burst)
	srv, ln, tr, c := served(t, func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		arrived.Wait()
		Respond(w, "text/plain", []byte("ok"))
	}, 0)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Do(http.MethodGet, "/x", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := ln.accepts.Load(); got != burst {
		t.Errorf("%d connections accepted, want %d", got, burst)
	}
	if got := tr.idleTo(srv); got != idleConns {
		t.Errorf("%d connections idle, want %d", got, idleConns)
	}
}

// A connection idle for idleConnTimeout is closed, not reused; the next
// request dials a new one.
func TestIdleConnectionExpires(t *testing.T) {
	srv, ln, tr, c := served(t, func(w http.ResponseWriter, r *http.Request) {
		Respond(w, "text/plain", []byte("ok"))
	}, 0)
	if _, err := c.Do(http.MethodGet, "/x", nil); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	pc := tr.idle[srv.Listener.Addr().String()][0]
	pc.idleAt = time.Now().Add(-idleConnTimeout) // idle that long
	tr.mu.Unlock()
	if _, err := c.Do(http.MethodGet, "/x", nil); err != nil {
		t.Fatal(err)
	}
	if got := ln.accepts.Load(); got != 2 {
		t.Errorf("%d connections accepted, want 2", got)
	}
	if _, err := pc.conn.Write([]byte("GET")); err == nil {
		t.Error("an expired connection is still open")
	}
	if got := tr.idleTo(srv); got != 1 {
		t.Errorf("%d connections idle, want the new one", got)
	}
}

// canned answers the requests a client writes to the far end of a
// net.Pipe, without allocating: it reads each request whole — it is told
// how long they are — and writes reply.
func canned(far net.Conn, requestLen []int, reply []byte) {
	buf := make([]byte, 8<<10)
	for i := 0; ; i++ {
		if _, err := io.ReadFull(far, buf[:requestLen[i%len(requestLen)]]); err != nil {
			return
		}
		if _, err := far.Write(reply); err != nil {
			return
		}
	}
}

// What a request costs the client on its own transport, the server's
// share left out: a kept-alive GET answered with a 2-byte body, and a
// PUT of 4 KiB, against a canned responder at the far end of a net.Pipe
// that allocates nothing itself. What is left is the Reply, its body, and
// Do's closure and the result it sets.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not measured under the race detector")
	}
	put := bytes.Repeat([]byte("x"), 4<<10)
	for _, tc := range []struct {
		method string
		body   []byte
	}{{http.MethodGet, nil}, {http.MethodPut, put}} {
		near, far := net.Pipe()
		c := ownClient("http://registry", &transport{dial: func(string, string) (net.Conn, error) { return near, nil }}, 0)
		request := len(c.appendRequest(nil, tc.method, "/x", tc.body, nil)) + len(tc.body)
		go canned(far, []int{request}, []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
		do := func() {
			if r, err := c.Do(tc.method, "/x", tc.body); err != nil || string(r.Body) != "ok" {
				t.Fatalf("%s: %v", tc.method, err)
			}
		}
		do() // dial
		allocs := testing.AllocsPerRun(200, do)
		if allocs > 4 {
			t.Errorf("%s: %.1f allocations a request, want at most 4", tc.method, allocs)
		}
		t.Logf("%s: %.1f allocations a request", tc.method, allocs)
		_ = near.Close()
		_ = far.Close()
	}
}

// What one request costs: a GET without a body, answered without one,
// on a kept-alive loopback connection — client and in-process server
// together.
func BenchmarkRoundTrip(b *testing.B) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	c := NewClient("bench client", srv.URL, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(http.MethodGet, "/x", nil); err != nil {
			b.Fatal(err)
		}
	}
}
