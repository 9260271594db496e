package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"syscall"
	"time"

	"github.com/gear-image/gear/internal/tarstream"
)

// idleConns is how many idle connections the transport keeps to one
// server: the store's fetch fan-out (store.DefaultFetchWorkers) and its
// read-ahead beside it, so that a wave of parallel fetches finds the
// connections of the wave before it. net/http's default of 2 re-dials
// the rest of every wave.
const idleConns = 16

// idleConnTimeout is how long a connection may wait on the idle list
// and still be reused: net/http's default, and below the 2 min after
// which Serve closes an idle connection from its end.
const idleConnTimeout = 90 * time.Second

// ownTransport carries every client that does not bring a transport of
// its own.
var ownTransport = new(transport)

// transport is an HTTP/1.1 client over plain TCP that sends each
// request, and reads its reply, on the caller's goroutine: it writes the
// request with (*http.Request).Write through the connection's buffer
// and reads the reply with http.ReadResponse, so parsing is net/http's
// and only the connections are this package's. There is no read or
// write loop, and no channel or context per request. It restates
// net/http's rules:
//
//   - A connection goes back to the idle list, which holds idleConns a
//     server, only once its reply body has been read to the end and
//     closed with nothing after it, and only when neither the request
//     nor the reply asked for Connection: close.
//   - An idle connection is reused only if it has been idle less than
//     idleConnTimeout and a read that does not wait finds nothing on it:
//     a server that closed it while it was idle is found out before a
//     request is written to it.
//   - A GET, HEAD, OPTIONS or TRACE that fails on a reused connection
//     before any byte of a reply arrived — the server closed it as the
//     request went out — is sent once more, on a fresh connection, if it
//     has no body or GetBody can give it one again. Nothing else is ever
//     sent twice.
//   - The request context's deadline, which is how http.Client brings
//     its Timeout, is set on the connection; a context that ends closes
//     the connection.
//
// Bodies go out as the request declares them and come back as the
// server sends them: it sends no Accept-Encoding (the protocols
// gzip-frame their own bodies, EncodingHeader) and copies a request body
// through pooled scratch (conn). It speaks neither TLS nor HTTP/2, goes
// through no proxy, and takes no 1xx reply; a caller that needs any of
// them brings a transport of its own. Of httptrace's hooks it calls
// GotConn, which is how a caller counts reused connections.
type transport struct {
	// dial opens a connection; nil dials TCP as net/http's default
	// transport does.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle map[string][]*persistConn // by host:port, the most recently used last
}

var dialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

// persistConn is a connection and its buffers.
type persistConn struct {
	t      *transport // whose idle list it goes back to
	addr   string
	conn   net.Conn
	raw    syscall.RawConn // the dialled connection's descriptor; nil for one without
	br     *bufio.Reader
	bw     *bufio.Writer
	reused bool // it has carried a request before this one

	deadline bool                  // a deadline is set on conn
	idleAt   time.Time             // when it last went on the idle list
	unread   bool                  // what alive's probe found: nothing to read yet
	probe    func(fd uintptr) bool // readNothing, bound once a connection rather than once a request
}

// RoundTrip implements http.RoundTripper.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		closeBody(req)
		return nil, fmt.Errorf("unsupported protocol scheme %q", req.URL.Scheme)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	ctx := req.Context()
	sent := req
	for {
		pc, err := t.get(ctx, addr, sent != req)
		if err != nil {
			closeBody(sent)
			return nil, err
		}
		if trace := httptrace.ContextClientTrace(ctx); trace != nil && trace.GotConn != nil {
			trace.GotConn(httptrace.GotConnInfo{Conn: pc.conn, Reused: pc.reused})
		}
		resp, unanswered, err := pc.roundTrip(sent)
		if err == nil {
			resp.Request = req
			return resp, nil
		}
		if !unanswered || !pc.reused || sent != req || ctx.Err() != nil || !replayable(req) {
			return nil, err
		}
		if sent = rewound(req); sent == nil {
			return nil, err
		}
	}
}

// replayable reports whether req may be sent again once it was written
// whole: it is of a method that changes nothing on the server, by
// net/http's list.
func replayable(req *http.Request) bool {
	switch req.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	return false
}

// rewound is a copy of req to send again, with its body again; nil when
// the body cannot be had again.
func rewound(req *http.Request) *http.Request {
	again := *req
	if req.Body != nil && req.Body != http.NoBody {
		if req.GetBody == nil {
			return nil
		}
		var err error
		if again.Body, err = req.GetBody(); err != nil {
			return nil
		}
	}
	return &again
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		_ = req.Body.Close()
	}
}

// get takes an idle connection to addr that is still open, or dials one
// when there is none or fresh asks for a new one.
func (t *transport) get(ctx context.Context, addr string, fresh bool) (*persistConn, error) {
	for !fresh {
		t.mu.Lock()
		list := t.idle[addr]
		if len(list) == 0 {
			t.mu.Unlock()
			break
		}
		pc := list[len(list)-1]
		list[len(list)-1] = nil
		t.idle[addr] = list[:len(list)-1]
		t.mu.Unlock()
		if time.Since(pc.idleAt) < idleConnTimeout && pc.alive() {
			pc.reused = true
			return pc, nil
		}
		_ = pc.conn.Close()
	}
	dial := t.dial
	if dial == nil {
		dial = dialer.DialContext
	}
	c, err := dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	pc := &persistConn{t: t, addr: addr, conn: conn{c}}
	if sc, ok := c.(syscall.Conn); ok {
		pc.raw, _ = sc.SyscallConn()
	}
	pc.br, pc.bw = bufio.NewReaderSize(pc.conn, 4<<10), bufio.NewWriterSize(pc.conn, 4<<10)
	return pc, nil
}

// put returns pc to the idle list, or closes it when the list is full.
func (t *transport) put(pc *persistConn) {
	if pc.deadline {
		// Cleared, so that a passed deadline does not fail alive's probe.
		_ = pc.conn.SetDeadline(time.Time{})
		pc.deadline = false
	}
	pc.idleAt = time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.idle[pc.addr]) >= idleConns {
		_ = pc.conn.Close()
		return
	}
	if t.idle == nil {
		t.idle = make(map[string][]*persistConn)
	}
	t.idle[pc.addr] = append(t.idle[pc.addr], pc)
}

// roundTrip sends req on pc and reads the reply's header. unanswered
// says it failed before any byte of a reply arrived.
func (pc *persistConn) roundTrip(req *http.Request) (resp *http.Response, unanswered bool, err error) {
	ctx := req.Context()
	if d, ok := ctx.Deadline(); ok {
		_ = pc.conn.SetDeadline(d)
		pc.deadline = true
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = pc.conn.Close() })
	}
	fail := func(err error) error {
		pc.finish(stop, false)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}

	werr := req.Write(pc.bw)
	if werr == nil {
		werr = pc.bw.Flush()
	}
	var opErr *net.OpError
	if werr != nil && !errors.As(werr, &opErr) {
		// The request's own body failed; the connection did not.
		return nil, false, fail(werr)
	}
	// A request the connection failed to carry may still have been
	// answered: a server can refuse a body before reading it, and close.
	if _, err := pc.br.Peek(1); err != nil {
		if werr != nil {
			err = werr
		}
		// A deadline that has passed would have passed for a resend too.
		return nil, !errors.Is(err, os.ErrDeadlineExceeded), fail(err)
	}
	if resp, err = http.ReadResponse(pc.br, req); err == nil && resp.StatusCode < 200 {
		err = fmt.Errorf("unsupported %s reply", resp.Status)
	}
	if err != nil {
		return nil, false, fail(err)
	}
	reuse := werr == nil && !resp.Close && !req.Close
	if resp.Body == http.NoBody {
		pc.finish(stop, reuse)
	} else {
		resp.Body = &body{rc: resp.Body, pc: pc, stop: stop, reuse: reuse}
	}
	return resp, false, nil
}

// finish ends a request on pc: its cancellation is disarmed, and pc goes
// back to the idle list if it may be reused and nothing of another reply
// is waiting on it, or is closed.
func (pc *persistConn) finish(stop func() bool, reuse bool) {
	if stop != nil && !stop() {
		reuse = false // the context ended, and closed the connection
	}
	if reuse && pc.br.Buffered() == 0 {
		pc.t.put(pc)
	} else {
		_ = pc.conn.Close()
	}
}

var errBodyClosed = errors.New("read on closed response body")

// body is a reply body still on its connection, which it lets go of
// when the body fails, ends and is closed, or is closed early.
type body struct {
	rc    io.ReadCloser // what http.ReadResponse made of the body
	pc    *persistConn  // nil once let go of
	stop  func() bool   // disarms the request's cancellation; nil for none
	reuse bool          // neither the request nor the reply asked to close
	err   error         // what every later Read returns: io.EOF after a clean end
}

func (b *body) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	n, err := b.rc.Read(p)
	if err != nil {
		b.err = err
		if err != io.EOF {
			b.letGo(false)
		}
	}
	return n, err
}

// Close ends the body. One not read to its end is not read on: the rest
// of it may never come, so the connection is closed.
func (b *body) Close() error {
	if b.pc != nil {
		b.letGo(b.err == io.EOF && b.reuse)
	}
	b.err = errBodyClosed
	return nil
}

func (b *body) letGo(reuse bool) {
	pc := b.pc
	b.pc = nil
	pc.finish(b.stop, reuse)
}

// conn is a dialled connection. The request writer hands a sized body to
// the connection's ReadFrom, and a TCP connection's own, given a source
// that is not a file, allocates a buffer of up to 32 KiB for every body
// it copies.
type conn struct{ net.Conn }

func (c conn) ReadFrom(r io.Reader) (int64, error) {
	// The embedded interface has no ReadFrom for Copy to come back to.
	return tarstream.Copy(struct{ io.Writer }{c.Conn}, r)
}
