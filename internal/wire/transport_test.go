package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A client brings its own transport or gets this package's: a client
// without one — one that only sets a Timeout, say — keeps everything
// else it set, and is itself left as it was.
func TestClientTransportOwnership(t *testing.T) {
	if c := NewClient("test client", "http://registry", nil, nil); c.http.Transport != transport {
		t.Errorf("nil client: transport %v, want the package's", c.http.Transport)
	}
	timed := &http.Client{Timeout: 3 * time.Second}
	c := NewClient("test client", "http://registry", timed, nil)
	if c.http.Transport != transport || c.http.Timeout != 3*time.Second {
		t.Errorf("client without a transport: transport %v, timeout %v; want the package's, under 3s", c.http.Transport, c.http.Timeout)
	}
	if timed.Transport != nil {
		t.Error("the caller's client was written to")
	}
	own := &http.Transport{}
	if c := NewClient("test client", "http://registry", &http.Client{Transport: own}, nil); c.http.Transport != own {
		t.Errorf("client with a transport: transport %v, want its own", c.http.Transport)
	}
}

// A request is what http.NewRequest builds of the same method, URL and
// body, GetBody included — a PUT that net/http sends again, after a
// kept-alive connection turned out closed, has its body again.
func TestRequestIsWhatNewRequestBuilds(t *testing.T) {
	for _, base := range []string{"http://registry:5000", "http://registry:5000/", "http://registry/mirror"} {
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
// those connections whole; they are answered without a body, because a
// connection that carried one goes back to the pool only some time after
// its reader saw the end.
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
		w.WriteHeader(http.StatusCreated)
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
				if _, err := c.Do(http.MethodPut, fmt.Sprintf("/%c%d", body[0], len(body)), body); err != nil {
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
