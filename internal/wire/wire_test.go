package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/clientopt"
)

var errGone = errors.New("thing is gone")

var testStatuses = Statuses{{Err: errGone, Code: http.StatusGone}}

// zeros is an endless body.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestReadBodyBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		r      io.Reader
		length int64
		want   int // body length, -1 for ErrTooLarge
	}{
		{"declared, fits", strings.NewReader("12345678"), 8, 8},
		{"declared at the limit", io.LimitReader(zeros{}, 64), 64, 64},
		{"declared over the limit", zeros{}, 65, -1},
		{"undeclared, fits", strings.NewReader("12345678"), -1, 8},
		{"undeclared at the limit", io.LimitReader(zeros{}, 64), -1, 64},
		{"undeclared over the limit", zeros{}, -1, -1},
	} {
		body, err := readBody(tc.r, tc.length, 64)
		if tc.want < 0 {
			if !errors.Is(err, ErrTooLarge) {
				t.Errorf("%s: err = %v, want ErrTooLarge", tc.name, err)
			}
		} else if err != nil || len(body) != tc.want {
			t.Errorf("%s: %d bytes, %v; want %d", tc.name, len(body), err, tc.want)
		}
	}
	if _, err := readBody(strings.NewReader("short"), 8, 64); err == nil {
		t.Error("a body shorter than its declared length was accepted")
	}
}

// An upload over MaxBody is refused with 413 before its body is read,
// and the client call comes back typed.
func TestOversizeRequestIs413(t *testing.T) {
	var served atomic.Int32
	srv := httptest.NewServer(NewHandler(nil, Verb{Method: http.MethodPut, Path: "/up", Serve: func(http.ResponseWriter, *Request) error {
		served.Add(1)
		return nil
	}}))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodPut, srv.URL+"/up", io.LimitReader(zeros{}, MaxBody+1))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = MaxBody + 1
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || served.Load() != 0 {
		t.Fatalf("status %d, verb served %d times; want 413 and 0", resp.StatusCode, served.Load())
	}

	// The same verdict through the client helper is ErrTooLarge.
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, ErrTooLarge.Error(), http.StatusRequestEntityTooLarge)
	}))
	defer refuse.Close()
	_, err = NewClient("test client", refuse.URL, nil, clientopt.Options{}, nil).Do(http.MethodPut, "/up", []byte("x"))
	if !errors.Is(err, ErrTooLarge) || Code(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("client err = %v, want ErrTooLarge carrying 413", err)
	}
}

// A response that declares more than MaxBody is refused by the client
// without reading it.
func TestOversizeResponseIsRefused(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(int64(MaxBody)+1))
		_, _ = w.Write(make([]byte, 1<<10))
	}))
	defer srv.Close()
	_, err := NewClient("test client", srv.URL, nil, clientopt.Options{}, nil).Do(http.MethodGet, "/big", nil)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// The dispatch rule: route, then the argument's Check, then method, then
// the verb; and only a POST or PUT verb is handed a body.
func TestHandlerDispatch(t *testing.T) {
	say := func(s string) func(http.ResponseWriter, *Request) error {
		return func(w http.ResponseWriter, r *Request) error {
			fmt.Fprintf(w, "%s arg=%q body=%q", s, r.Arg, r.Body)
			return nil
		}
	}
	h := NewHandler(testStatuses,
		Verb{Method: http.MethodGet, Path: "/things/", Serve: say("list")},
		Verb{Method: http.MethodGet, Path: "/things/*", Serve: say("get")},
		Verb{Method: http.MethodPut, Path: "/things/*", Serve: say("put")},
		Verb{Path: "/any", Serve: say("any")},
		Verb{Method: http.MethodGet, Path: "/fp/*", Check: NeedArg, Serve: say("fp")},
		Verb{Method: http.MethodGet, Path: "/even/*", Serve: say("even"), Check: func(arg string) error {
			if len(arg)%2 != 0 {
				return As(ErrBadRequest, errors.New("odd argument"))
			}
			return nil
		}},
		Verb{Method: http.MethodGet, Path: "/gone", Serve: func(http.ResponseWriter, *Request) error {
			return fmt.Errorf("lookup: %w", errGone)
		}},
		Verb{Method: http.MethodGet, Path: "/bad", Serve: func(http.ResponseWriter, *Request) error {
			return As(ErrBadRequest, errors.New("exact text"))
		}},
		Verb{Method: http.MethodGet, Path: "/broken", Serve: func(http.ResponseWriter, *Request) error {
			return errors.New("unmapped")
		}},
	)
	for _, tc := range []struct {
		method, path, body string
		status             int
		want               string
	}{
		{"GET", "/things/", "", 200, `list arg="" body=""`},
		{"PUT", "/things/", "", 405, ""}, // the exact pattern owns the path
		{"GET", "/things/a/b", "", 200, `get arg="a/b" body=""`},
		{"PUT", "/things/a", "data", 200, `put arg="a" body="data"`},
		{"DELETE", "/things/a", "", 405, ""},
		{"DELETE", "/any", "x", 200, `any arg="" body=""`},
		{"GET", "/things/a", "unread", 200, `get arg="a" body=""`},
		{"GET", "/fp/a", "", 200, `fp arg="a" body=""`},
		{"PUT", "/fp/a", "", 405, ""},
		{"PUT", "/fp/", "", 404, "404 page not found\n"}, // no argument: no route, whatever the method
		{"GET", "/even/ab", "", 200, `even arg="ab" body=""`},
		{"PUT", "/even/ab", "", 405, ""},
		{"PUT", "/even/abc", "", 400, "odd argument\n"}, // the argument is judged before the method
		{"GET", "/things", "", 404, "404 page not found\n"},
		{"GET", "/any/more", "", 404, "404 page not found\n"},
		{"GET", "/gone", "", 410, "lookup: thing is gone\n"},
		{"GET", "/bad", "", 400, "exact text\n"},
		{"GET", "/broken", "", 500, "unmapped\n"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.status || rec.Body.String() != tc.want {
			t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, rec.Code, rec.Body, tc.status, tc.want)
		}
	}
}

// unread fails the test if the handler reads the request body.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) {
	u.t.Error("the body of a refused request was read")
	return 0, io.EOF
}

// A request refused by route, argument or method, or served by a verb
// that takes no body, is answered without reading what it sent.
func TestRefusalReadsNoBody(t *testing.T) {
	refuse := Verb{Path: "/refuse/*", Check: NeedArg, Serve: func(http.ResponseWriter, *Request) error { return As(ErrMethod, errors.New("read-only")) }}
	get := Verb{Method: http.MethodGet, Path: "/get", Serve: func(http.ResponseWriter, *Request) error { return nil }}
	h := NewHandler(nil, refuse, get)
	for path, want := range map[string]int{"/refuse/x": 405, "/refuse/": 404, "/get": 405, "/nowhere": 404} {
		req := httptest.NewRequest(http.MethodPut, path, unread{t})
		req.ContentLength = MaxBody
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Errorf("PUT %s = %d, want %d", path, rec.Code, want)
		}
	}
}

// The status table read the other way: the error a handler returned is
// the error the client call returns.
func TestStatusTableIsTwoWay(t *testing.T) {
	other := errors.New("another reason to be gone")
	table := Statuses{{Err: errGone, Code: http.StatusGone}, {Err: other, Code: http.StatusGone}}
	for _, sent := range []error{errGone, other, ErrBadRequest, ErrMethod, ErrTooLarge} {
		srv := httptest.NewServer(NewHandler(table, Verb{Path: "/x", Serve: func(http.ResponseWriter, *Request) error {
			return fmt.Errorf("serving /x: %w", sent)
		}}))
		_, err := NewClient("test client", srv.URL, nil, clientopt.Options{}, table).Do(http.MethodGet, "/x", nil)
		srv.Close()
		if !errors.Is(err, sent) {
			t.Errorf("handler returned %v, client got %v", sent, err)
		}
	}
	// A body that carries no row's text is typed by its status alone:
	// the generic error, not whichever protocol row comes first.
	vague := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "gzip: invalid header", http.StatusBadRequest)
	}))
	defer vague.Close()
	mismatch := errors.New("fingerprint mismatch")
	_, err := NewClient("test client", vague.URL, nil, clientopt.Options{}, Statuses{{Err: mismatch, Code: http.StatusBadRequest}}).Do(http.MethodGet, "/x", nil)
	if !errors.Is(err, ErrBadRequest) || errors.Is(err, mismatch) {
		t.Errorf("err = %v, want ErrBadRequest and not the protocol's own 400", err)
	}
	// A status no row names is still an error, just an untyped one.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	defer srv.Close()
	_, err = NewClient("test client", srv.URL, nil, clientopt.Options{}, table).Do(http.MethodGet, "/x", nil)
	if Code(err) != http.StatusTeapot || errors.Is(err, errGone) {
		t.Errorf("err = %v, want an untyped 418", err)
	}
}

// failFirst fails its first n round trips in transport.
type failFirst struct {
	n     int
	calls int
}

func (f *failFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	f.calls++
	if f.calls <= f.n {
		return nil, errors.New("connection reset")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// Only a request that failed in transport is sent again: a reply is an
// answer, whatever its status.
func TestClientRetriesTransportErrorsOnly(t *testing.T) {
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/fail" {
			http.Error(w, "no", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	opts := clientopt.Options{Retries: 3}

	tr := &failFirst{n: 2}
	c := NewClient("test client", srv.URL, &http.Client{Transport: tr}, opts, nil)
	r, err := c.Do(http.MethodPost, "/echo", []byte("payload"))
	if err != nil || string(r.Body) != "payload" || tr.calls != 3 {
		t.Fatalf("reply %v, %v after %d tries; want the echoed body on the third", r, err, tr.calls)
	}

	tr = &failFirst{}
	c = NewClient("test client", srv.URL, &http.Client{Transport: tr}, opts, nil)
	if _, err := c.Do(http.MethodGet, "/fail", nil); Code(err) != 500 || tr.calls != 1 {
		t.Fatalf("err %v after %d tries; want one try answered 500", err, tr.calls)
	}

	tr = &failFirst{n: 10}
	c = NewClient("test client", srv.URL, &http.Client{Transport: tr}, opts, nil)
	if _, err := c.Do(http.MethodGet, "/echo", nil); err == nil || tr.calls != 4 {
		t.Fatalf("err %v after %d tries; want failure after 4", err, tr.calls)
	}
}

// Every reply, error replies included, is read to the end, so a serial
// client keeps one connection for all its requests.
func TestClientReusesConnection(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 1<<16) // sent chunked: no declared length
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			_, _ = w.Write([]byte("ok"))
		case "/big":
			_, _ = w.Write(big)
		default:
			http.Error(w, strings.Repeat("no ", 2000), http.StatusNotFound)
		}
	}))
	defer srv.Close()

	var conns, reused atomic.Int32
	tracing := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			conns.Add(1)
			if info.Reused {
				reused.Add(1)
			}
		}}
		return srv.Client().Transport.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), ct)))
	})
	c := NewClient("test client", srv.URL, &http.Client{Transport: tracing}, clientopt.Options{}, nil)
	for _, path := range []string{"/small", "/big", "/missing", "/small", "/missing", "/big"} {
		_, _ = c.Do(http.MethodGet, path, nil)
	}
	if conns.Load() != 6 || reused.Load() != 5 {
		t.Fatalf("%d of %d requests reused the connection, want 5 of 6", reused.Load(), conns.Load())
	}
}

// A streamed reply is handed back for reuse however its reader left it:
// read in part, refused half way, or not touched at all; and what the
// reader refuses comes back as an ErrBadReply that still says why.
func TestStreamDrainsWhatItsReaderLeaves(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 1<<16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Respond(w, "application/octet-stream", big)
	}))
	defer srv.Close()
	var conns, reused atomic.Int32
	tracing := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			conns.Add(1)
			if info.Reused {
				reused.Add(1)
			}
		}}
		return srv.Client().Transport.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), ct)))
	})
	c := NewClient("test client", srv.URL, &http.Client{Transport: tracing}, clientopt.Options{}, nil)
	errMisframed := errors.New("not what was asked for")
	for _, read := range []func(*Body) error{
		func(*Body) error { return nil },
		func(b *Body) error { _, err := io.ReadFull(b.br, make([]byte, 100)); return err },
		func(b *Body) error { _, _ = io.ReadFull(b.br, make([]byte, 100)); return errMisframed },
		func(b *Body) error {
			if b.length != int64(len(big)) {
				t.Errorf("declared length = %d, want %d", b.length, len(big))
			}
			got, err := b.Rest(false)
			if err == nil && (!bytes.Equal(got, big) || b.Received() != int64(len(big))) {
				t.Errorf("read %d bytes, %d received, want %d", len(got), b.Received(), len(big))
			}
			return err
		},
	} {
		err := c.Stream(http.MethodGet, "/big", nil, read)
		if err != nil && !(errors.Is(err, ErrBadReply) && errors.Is(err, errMisframed)) {
			t.Errorf("err = %v, want nil or the reader's error as an ErrBadReply", err)
		}
	}
	if conns.Load() != 4 || reused.Load() != 3 {
		t.Fatalf("%d of %d requests reused the connection, want 3 of 4", reused.Load(), conns.Load())
	}
}

// An honest object too large for the first read off the wire to vouch
// for (4 KiB reaches 4 MiB) still costs one buffer of its size: the few
// KiB it grows through while its bytes arrive are all it pays for not
// being believed at once.
func TestRestOfALargeBodyIsOneAllocation(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<20) // 16 MiB
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Respond(w, "application/octet-stream", big)
	}))
	defer srv.Close()
	c := NewClient("test client", srv.URL, srv.Client(), clientopt.Options{}, nil)
	fetch := func() {
		err := c.Stream(http.MethodGet, "/big", nil, func(b *Body) error {
			got, err := b.Rest(false)
			if err == nil && !bytes.Equal(got, big) {
				t.Errorf("read %d bytes that are not the %d served", len(got), len(big))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fetch() // open the connection, fill the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fetch()
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent > uint64(len(big))+512<<10 {
		t.Errorf("%d bytes allocated to read a %d-byte body", spent, len(big))
	}
}

// A body with no declared length is cut off at the bound, one byte past
// it, and from then on says why.
func TestBoundedBodyStopsAtTheLimit(t *testing.T) {
	for _, size := range []int64{0, 63, 64} {
		b := &bounded{r: io.LimitReader(zeros{}, size), left: 64}
		if n, err := io.Copy(io.Discard, b); err != nil || n != size || b.got != size {
			t.Errorf("%d-byte body under a 64-byte bound: %d read, %d counted, %v", size, n, b.got, err)
		}
	}
	b := &bounded{r: zeros{}, left: 64}
	if n, err := io.Copy(io.Discard, b); !errors.Is(err, ErrTooLarge) || n > 64 {
		t.Errorf("endless body under a 64-byte bound: %d bytes passed on, %v; want at most 64 and ErrTooLarge", n, err)
	}
	if _, err := b.Read(make([]byte, 1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("read after the overrun: %v, want ErrTooLarge", err)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// Serve stops on SIGTERM, and lets the request in flight finish first.
func TestServeShutsDownGracefully(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		_, _ = w.Write([]byte("finished"))
	})
	served := make(chan error, 1)
	go func() { served <- Serve(ln, h) }()

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			got <- err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		got <- string(body)
	}()
	<-started
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Shutdown has begun once the listener refuses new connections.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break
		}
		_ = conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting 5s after SIGTERM")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request still in flight", err)
	default:
	}
	close(release)
	if body := <-got; body != "finished" {
		t.Fatalf("in-flight request got %q", body)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v, want nil after a clean shutdown", err)
	}
}

// failing is a body that breaks off after what it has.
type failing struct{ r io.Reader }

func (f failing) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = errors.New("connection reset mid-body")
	}
	return n, err
}

// A streaming verb reads its body off the connection itself, and the
// handler still owns the bound and what a broken body is answered: a
// body declared over MaxBody is refused unread, and a read that fails is
// a 400 (413 past the bound) whatever the verb made of the failure.
func TestStreamedVerb(t *testing.T) {
	var got []byte
	verdict := error(nil)
	h := NewHandler(testStatuses, Verb{Method: http.MethodPut, Path: "/up", Stream: true, Serve: func(w http.ResponseWriter, r *Request) error {
		if r.Body != nil {
			t.Error("a streaming verb was handed a body already read")
		}
		var err error
		if got, err = io.ReadAll(r.Request.Body); err == nil && verdict == nil {
			w.WriteHeader(http.StatusCreated)
		}
		return verdict
	}})
	put := func(body io.Reader, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPut, "/up", body)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := put(strings.NewReader("an object"), 9); rec.Code != http.StatusCreated || string(got) != "an object" {
		t.Errorf("streamed upload: %d, verb read %q", rec.Code, got)
	}
	if rec := put(http.NoBody, 0); rec.Code != http.StatusCreated || len(got) != 0 {
		t.Errorf("empty streamed upload: %d, verb read %q", rec.Code, got)
	}
	if rec := put(strings.NewReader("no length"), -1); rec.Code != http.StatusCreated || string(got) != "no length" {
		t.Errorf("streamed upload without a length: %d, verb read %q", rec.Code, got)
	}
	// The verb's own verdict stands when the body was sound.
	verdict = fmt.Errorf("storing: %w", errGone)
	if rec := put(strings.NewReader("an object"), 9); rec.Code != http.StatusGone {
		t.Errorf("verb's error: %d, want 410", rec.Code)
	}
	// A broken body is a 400 whether the verb reports it, something
	// else, or nothing.
	for _, verdict = range []error{nil, errGone, errors.New("what the verb made of it")} {
		rec := put(failing{strings.NewReader("half an obj")}, 22)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "connection reset mid-body") {
			t.Errorf("broken body, verb says %v: %d %q, want 400 with the transport's error", verdict, rec.Code, rec.Body)
		}
	}
	if rec := put(unread{t}, MaxBody+1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared over the bound: %d, want 413", rec.Code)
	}

	// A body that runs past the bound fails the read that crosses it,
	// typed, and the failure is remembered.
	body := &streamedBody{ReadCloser: http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(zeros{}), 64)}
	if n, err := io.Copy(io.Discard, body); !errors.Is(err, ErrTooLarge) || !errors.Is(body.err, ErrTooLarge) || n > 64 {
		t.Errorf("endless body under a 64-byte bound: %d bytes passed on, %v (remembered: %v); want at most 64 and ErrTooLarge", n, err, body.err)
	}
}
