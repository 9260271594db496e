package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/gear-image/gear/internal/tarstream"
)

// Client issues a protocol's requests against one server.
type Client struct {
	name    string
	base    url.URL // the server's URL, parsed once; every request is a path under it
	baseErr error   // why base is not one
	errs    Statuses

	http http.Client // the caller's, when it brings a transport

	own     *transport    // otherwise this package's, to carry every request
	timeout time.Duration // the deadline of each exchange on it, from now; 0 for none
	addr    string        // the host:port it dials
}

// NewClient returns a client for the server at baseURL. name opens
// every error it returns ("registry client"); failure replies are typed
// through errs. hc's Transport, when it has one, carries every request,
// through hc.Do, untouched. A nil hc, or one without a Transport, is
// carried by this package's own HTTP/1.1 codec (transport.go), which
// honours hc.Timeout alone: it is how a caller bounds each request, and
// it arrives as the deadline of the request's connection. Jar and
// CheckRedirect are not honoured there, since no protocol here sets a
// cookie or redirects. That codec speaks plain http:// to an ASCII host,
// with neither user info nor a query in the base URL: a caller that
// needs TLS, a proxy or HTTP/2 brings its own transport. Every request
// is sent once — any reply, whatever its status, is the server's
// answer; only a GET (or HEAD) whose kept-alive connection closed
// before any reply is sent again on a new one. A base URL that is
// empty, does not parse, or that the codec cannot speak to is reported
// by the first call.
func NewClient(name, baseURL string, hc *http.Client, errs Statuses) *Client {
	c := &Client{name: name, errs: errs}
	if baseURL == "" {
		c.baseErr = errors.New("empty base URL")
	} else if base, err := url.Parse(strings.TrimSuffix(baseURL, "/")); err != nil {
		c.baseErr = err
	} else {
		c.base = *base
	}
	if hc != nil && hc.Transport != nil {
		c.http = *hc
		return c
	}
	c.own = ownTransport
	if hc != nil {
		c.timeout = hc.Timeout
	}
	switch b := &c.base; {
	case c.baseErr != nil:
	case b.Scheme != "http":
		c.baseErr = fmt.Errorf("unsupported protocol scheme %q", b.Scheme)
	case b.Host == "" || b.User != nil || b.ForceQuery || b.RawQuery != "" || strings.ContainsFunc(b.Host, func(r rune) bool { return r >= utf8.RuneSelf || r == '%' }):
		c.baseErr = fmt.Errorf("base URL %q: want a plain ASCII host, and no user info, zone or query", baseURL)
	default:
		if c.addr = b.Host; b.Port() == "" {
			c.addr = net.JoinHostPort(b.Hostname(), "80")
		}
	}
	return c
}

// Reply is a 2xx response, its body read whole.
type Reply struct {
	Body    []byte
	Gzipped bool // the reply's EncodingHeader says its body is gzip-framed
}

// Do is Stream for the small text bodies: it returns the reply once its
// body has been read whole.
func (c *Client) Do(method, path string, body []byte, header ...string) (*Reply, error) {
	var r *Reply
	err := c.Stream(method, path, body, func(b *Body) error {
		data, err := b.Bytes()
		r = &Reply{Body: data, Gzipped: b.Gzipped}
		return err
	}, header...)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Stream sends one request — body nil for none, header as name, value
// pairs — and hands a 2xx reply to read while its body is still on the
// wire, so an object is decoded straight off the connection and never
// staged. However read leaves it, the body is then read to the end (at
// most MaxBody in all) and closed, which is what hands the connection
// back for reuse. An error from read is an ErrBadReply; a reply outside
// 2xx is a *StatusError typed by the protocol's status table.
func (c *Client) Stream(method, path string, body []byte, read func(*Body) error, header ...string) error {
	if c.baseErr != nil {
		return fmt.Errorf("%s: %w", c.name, c.baseErr)
	}
	var err error
	if c.own != nil {
		var pc *persistConn
		var status int
		if pc, status, err = c.roundTrip(method, path, body, header); err == nil {
			b := &pc.body
			*b = Body{Gzipped: pc.hdr.gzipped, length: pc.length, src: bounded{r: &pc.reply}, sizes: sizes(b.sizes[:0], pc.hdr.sizes)}
			err = c.receive(method, path, status, b, read)
			pc.release()
		}
	} else {
		req := c.request(method, path, body)
		for i := 0; i+1 < len(header); i += 2 {
			req.Header.Set(header[i], header[i+1])
		}
		var resp *http.Response
		if resp, err = c.http.Do(req); err == nil {
			b := &Body{Gzipped: resp.Header.Get(EncodingHeader) == "gzip", length: resp.ContentLength, src: bounded{r: resp.Body},
				sizes: sizes(nil, []byte(resp.Header.Get(SizeHeader)))}
			err = c.receive(method, path, resp.StatusCode, b, read)
			_ = resp.Body.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

// request is what http.NewRequest(method, base+path, bytes.NewReader(body))
// builds, without parsing anything: the path is set as it is, so
// whatever bytes it holds are escaped on the request line and decoded
// once by the server, and a request without a body carries none. It is
// what a caller's transport is handed; appendRequest writes its bytes
// for this package's own.
func (c *Client) request(method, path string, body []byte) *http.Request {
	u := c.base
	u.Path += path
	req := &http.Request{
		Method: method, URL: &u, Host: u.Host, Header: make(http.Header),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	if len(body) > 0 {
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	return req
}

// receive hands b, the reply to a request of method for path, to read
// when it is 2xx, and types it by errs when it is not. Either way the
// body is bounded by MaxBody and read to its end.
func (c *Client) receive(method, path string, status int, b *Body, read func(*Body) error) error {
	b.src.left = MaxBody
	if method == http.MethodHead {
		b.length = 0
	}
	if b.length > MaxBody {
		return ErrTooLarge
	}
	b.br = buffers.Get().(*bufio.Reader)
	b.br.Reset(&b.src)
	defer func() {
		_, _ = io.Copy(io.Discard, b.br)
		b.br.Reset(nil)
		buffers.Put(b.br)
	}()
	if status/100 != 2 {
		text, err := b.Bytes()
		if err != nil {
			return err
		}
		msg := strings.TrimSpace(string(text))
		return &StatusError{Method: method, Path: c.base.Path + path, Code: status, Body: msg,
			kind: c.errs.kind(status, msg)}
	}
	if err := read(b); err != nil {
		if b.src.left < 0 {
			return ErrTooLarge
		}
		return As(ErrBadReply, err)
	}
	return nil
}

// buffers are what reply bodies are read through.
var buffers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// bounded passes on at most left bytes of a body, and counts them.
type bounded struct {
	r    io.Reader
	got  int64
	left int64 // negative once the body has run over
}

func (l *bounded) Read(p []byte) (int, error) {
	if l.left < 0 {
		return 0, ErrTooLarge
	}
	// One byte over the bound tells a body of exactly that size from a
	// longer one.
	if int64(len(p)) > l.left+1 {
		p = p[:l.left+1]
	}
	n, err := l.r.Read(p)
	l.got += int64(n)
	if l.left -= int64(n); l.left < 0 {
		return 0, ErrTooLarge
	}
	return n, err
}

// Body is a 2xx reply whose body is still on the wire. It reads through
// a pooled buffer, and a gzip object is inflated off it a piece at a
// time (tarstream.GunzipInto). It is only valid inside the function
// Stream hands it to.
type Body struct {
	Gzipped bool // the reply's EncodingHeader says its body is gzip-framed

	length int64 // the declared Content-Length, -1 for a reply without one
	src    bounded
	br     *bufio.Reader
	frame  frame
	sizes  []int64 // SizeHeader's
}

// Received is how many body bytes have crossed the wire so far: all of
// them, once the body has been read to its end.
func (b *Body) Received() int64 { return b.src.got }

// unread is how many declared body bytes nothing has consumed yet, -1
// when the reply declared no length.
func (b *Body) unread() int64 {
	if b.length < 0 {
		return -1
	}
	return b.length - (b.src.got - int64(b.br.Buffered()))
}

// Declared is what the reply's SizeHeader says object i inflates to,
// -1 when it does not say: no header, one that does not parse, or one
// with fewer entries.
func (b *Body) Declared(i int) int64 {
	if i >= len(b.sizes) {
		return -1
	}
	return b.sizes[i]
}

// sizes appends the sizes of a SizeHeader list to dst: none of a list
// with a field that is not a number.
func sizes(dst []int64, list []byte) []int64 {
	for more := len(list) > 0; more; {
		var field []byte
		field, list, more = bytes.Cut(list, []byte(","))
		n, err := strconv.ParseInt(string(field), 10, 64)
		if err != nil {
			return dst[:0]
		}
		dst = append(dst, n)
	}
	return dst
}

// Bytes reads what is left of the body whole. A declared length is the
// peer's claim: it is allocated up front only up to eagerBody, and a
// longer body is given memory as its bytes arrive.
func (b *Body) Bytes() ([]byte, error) { return readBody(b.br, b.unread(), MaxBody) }

// Line reads one header line, without its newline; io.EOF says the body
// ended cleanly before it. A line is a few short fields: one that
// outgrows the buffer is not one.
func (b *Body) Line() (string, error) {
	line, err := b.br.ReadSlice('\n')
	switch {
	case err == io.EOF && len(line) == 0:
		return "", io.EOF
	case err != nil:
		return "", fmt.Errorf("truncated header %q", line)
	}
	return string(line[:len(line)-1]), nil
}

// Ended reports whether the body has been read to its end.
func (b *Body) Ended() bool {
	_, err := b.br.Peek(1)
	return err == io.EOF
}

// Rest reads everything left of the body as the reply's one object,
// inflated when gzipped.
func (b *Body) Rest(gzipped bool) ([]byte, error) {
	// The first bytes are read in before the declared size is held
	// against what has arrived; an empty body has none to read.
	_, _ = b.br.Peek(1)
	return b.object(b.br, b.unread(), b.Declared(0), gzipped)
}

// Frame reads an object off the next stored bytes of the body, inflated
// when gzipped; size is what it is declared to inflate to (Declared, for
// a batch's i-th frame), -1 for unknown.
func (b *Body) Frame(stored, size int64, gzipped bool) ([]byte, error) {
	if left := b.unread(); left >= 0 && stored > left {
		return nil, fmt.Errorf("truncated payload: want %d bytes, the reply has %d left", stored, left)
	}
	b.frame = frame{br: b.br, left: stored}
	return b.object(&b.frame, stored, size, gzipped)
}

// object reads src to its end into a single buffer of the object's
// size: what the reply declares a gzip stream inflates to, and for a
// raw object its stored length, whatever the reply declares. Both are
// the server's claims, and so is the Content-Length behind them. A claim
// gets its memory only once the bytes that have actually arrived could
// inflate to it (tarstream.SizeHint), and then exactly that memory: the
// end of the content is found without a byte more. Until then the buffer
// grows with the content, as it does for a reply that declares nothing,
// so a reply that lies is given no more than deflate gives a sound gzip
// stream of the bytes it did send. Content that turns out any other size
// than declared is an error, not an answer. The gzip CRC and the
// caller's own fingerprint check judge the bytes as they always have.
func (b *Body) object(src io.Reader, stored, size int64, gzipped bool) ([]byte, error) {
	if !gzipped {
		size = stored
	}
	hint := func() int {
		// Of this object no more than stored bytes can have arrived,
		// however much the reply has delivered.
		held := b.src.got
		if 0 <= stored && stored < held {
			held = stored
		}
		return tarstream.SizeHint(size, held)
	}
	// One byte over the claim is where the end of the content is read.
	room := func(int) int { return hint() + 1 }
	var content []byte
	var err error
	switch {
	case size > 0 && int64(hint()) == size:
		// A raw src ends where the object does, so there is no end to
		// find; a gzip stream's end is read through scratch. Either way the
		// byte for it would put the buffer in the next size class.
		content = make([]byte, size)
		if gzipped {
			err = tarstream.GunzipInto(content, src)
		} else {
			_, err = io.ReadFull(src, content)
		}
	case gzipped:
		content, err = tarstream.GunzipFrom(src, room)
	default:
		content, err = tarstream.ReadAll(src, room)
	}
	if err != nil {
		return nil, err
	}
	if size >= 0 && int64(len(content)) != size {
		return nil, fmt.Errorf("object is %d bytes, the reply declared %d", len(content), size)
	}
	return content, nil
}

// frame reads exactly left more bytes of a body.
type frame struct {
	br   *bufio.Reader
	left int64
}

func (f *frame) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.br.Read(p)
	f.left -= int64(n)
	if err == io.EOF && f.left > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
