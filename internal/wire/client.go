package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"github.com/gear-image/gear/internal/clientopt"
	"github.com/gear-image/gear/internal/tarstream"
)

// Client issues a protocol's requests against one server.
type Client struct {
	name    string
	base    url.URL // the server's URL, parsed once; every request is a path under it
	baseErr error   // why base is not one
	http    http.Client
	opts    clientopt.Options
	errs    Statuses
}

// NewClient returns a client for the server at baseURL. name opens
// every error it returns ("registry client"); failure replies are typed
// through errs. hc's Transport, when it has one, is used untouched; a
// nil hc, or one without a Transport, is carried by this package's own
// (transport.go), under whatever Timeout, Jar and CheckRedirect hc
// sets. o is the retry policy: only a request that fails in transport
// is sent again; any reply, whatever its status, is the server's answer.
func NewClient(name, baseURL string, hc *http.Client, o clientopt.Options, errs Statuses) *Client {
	c := &Client{name: name, opts: o, errs: errs}
	if hc != nil {
		c.http = *hc
	}
	if c.http.Transport == nil {
		c.http.Transport = transport
	}
	if base, err := url.Parse(strings.TrimSuffix(baseURL, "/")); err != nil {
		c.baseErr = err
	} else {
		c.base = *base
	}
	return c
}

// Reply is a 2xx response, its body read whole.
type Reply struct {
	Header http.Header
	Body   []byte
}

// Do is Stream for the small text bodies: it returns the reply once its
// body has been read whole.
func (c *Client) Do(method, path string, body []byte, header ...string) (*Reply, error) {
	var r *Reply
	err := c.Stream(method, path, body, func(b *Body) error {
		data, err := b.Bytes()
		r = &Reply{Header: b.Header, Body: data}
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
func (c *Client) Stream(method, path string, body []byte, read func(*Body) error, header ...string) (err error) {
	if c.baseErr != nil {
		return fmt.Errorf("%s: %w", c.name, c.baseErr)
	}
	for try := 0; try < c.opts.Attempts(); try++ {
		c.opts.Sleep(try)
		req := c.request(method, path, body)
		for i := 0; i+1 < len(header); i += 2 {
			req.Header.Set(header[i], header[i+1])
		}
		var resp *http.Response
		if resp, err = c.http.Do(req); err == nil {
			err = c.receive(req, resp, read)
			break
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
// once by the server, and a request without a body carries none.
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

func (c *Client) receive(req *http.Request, resp *http.Response, read func(*Body) error) error {
	defer func() { _ = resp.Body.Close() }()
	b := &Body{Header: resp.Header, length: resp.ContentLength, src: bounded{r: resp.Body, left: MaxBody}}
	if req.Method == http.MethodHead {
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
	if resp.StatusCode/100 != 2 {
		text, err := b.Bytes()
		if err != nil {
			return err
		}
		msg := strings.TrimSpace(string(text))
		return &StatusError{Method: req.Method, Path: req.URL.Path, Code: resp.StatusCode, Body: msg,
			kind: c.errs.kind(resp.StatusCode, msg)}
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
// a pooled buffer and is an io.ByteReader, which is what lets the pooled
// gzip reader inflate straight off it without a buffer of its own. It
// is only valid inside the function Stream hands it to.
type Body struct {
	Header http.Header

	length int64 // the declared Content-Length, -1 for a reply without one
	src    bounded
	br     *bufio.Reader
	frame  frame
	sizes  []int64 // SizeHeader, once parsed
	parsed bool
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

// declared is what the reply's SizeHeader says object i inflates to,
// -1 when it does not say: no header, one that does not parse, or one
// with fewer entries.
func (b *Body) declared(i int) int64 {
	if !b.parsed {
		b.parsed = true
		if list := b.Header.Get(SizeHeader); list != "" {
			b.sizes, _ = Ints(strings.Split(list, ","))
		}
	}
	if i >= len(b.sizes) {
		return -1
	}
	return b.sizes[i]
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
	return b.object(b.br, b.unread(), b.declared(0), gzipped)
}

// Frame reads the reply's i-th object off the next stored bytes of the
// body, inflated when gzipped.
func (b *Body) Frame(i int, stored int64, gzipped bool) ([]byte, error) {
	if left := b.unread(); left >= 0 && stored > left {
		return nil, fmt.Errorf("truncated payload: want %d bytes, the reply has %d left", stored, left)
	}
	b.frame = frame{br: b.br, left: stored}
	return b.object(&b.frame, stored, b.declared(i), gzipped)
}

// object reads src to its end into a single buffer of the object's
// size: what the reply's SizeHeader declares a gzip stream inflates to,
// and for a raw object its stored length, whatever the reply declares.
// Both are the server's claims, and so is the Content-Length behind
// them. A claim gets its memory only once the bytes that have actually
// arrived could inflate to it (tarstream.SizeHint); until then the
// buffer grows with the content, as it does for a reply that declares
// nothing, so a reply that lies is given no more than deflate gives a
// sound gzip stream of the bytes it did send. Content that turns out
// any other size than declared is an error, not an answer. The gzip CRC
// and the caller's own fingerprint check judge the bytes as they always
// have.
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
	if gzipped {
		content, err = tarstream.GunzipFrom(src, room)
	} else if size > 0 && int64(hint()) == size {
		// src ends where the raw object does: there is no end to find,
		// and the byte for it would put the buffer in the next size class.
		content = make([]byte, size)
		_, err = io.ReadFull(src, content)
	} else {
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

// frame reads exactly left more bytes of a body, and is an
// io.ByteReader like the buffer it reads through.
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

func (f *frame) ReadByte() (byte, error) {
	if f.left <= 0 {
		return 0, io.EOF
	}
	c, err := f.br.ReadByte()
	if err == nil {
		f.left--
	} else if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return c, err
}
