package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
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

// maxHeader bounds a reply's status line and header block together:
// net/http's server bounds a request's the same, and a batch's
// SizeHeader for a hundred thousand objects fits under it.
const maxHeader = http.DefaultMaxHeaderBytes

// ownTransport carries every client that does not bring a transport of
// its own.
var ownTransport = new(transport)

// transport is an HTTP/1.1 client codec over plain TCP. Client writes
// each request straight into its connection's buffer and reads the
// reply's status line and header straight off it, into scratch the
// connection keeps for its next reply, on the caller's goroutine: there
// is no http.Request or http.Response, no header map, no read or write
// loop, and no channel or context per request. The request is the bytes
// (*http.Request).Write writes (appendRequest); the reply is read by
// http.ReadResponse's rules (readReply). The connections follow
// net/http's rules too:
//
//   - A connection goes back to the idle list, which holds idleConns a
//     server, only once its reply body has been read to a clean end with
//     nothing after it, and only when the reply did not ask for
//     Connection: close (nor was HTTP/1.0 without keep-alive, nor
//     delimited by the connection's end).
//   - An idle connection is reused only if it has been idle less than
//     idleConnTimeout and a read that does not wait finds nothing on it:
//     a server that closed it while it was idle is found out before a
//     request is written to it.
//   - A GET, HEAD, OPTIONS or TRACE that fails on a reused connection
//     before any byte of a reply arrived — the server closed it as the
//     request went out — is sent once more, on a fresh connection.
//     Nothing else is ever sent twice.
//   - The client's Timeout is set on the connection as the deadline of
//     the whole exchange, reply body included.
//
// It sends no Accept-Encoding (the protocols gzip-frame their own
// bodies, EncodingHeader), speaks neither TLS nor HTTP/2, goes through
// no proxy, and takes no 1xx reply, folded header field or trailer; a
// caller that needs any of them brings a transport of its own.
type transport struct {
	// dial opens a connection; nil dials TCP as net/http's default
	// transport does.
	dial func(network, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle map[string][]*persistConn // by host:port, the most recently used last
}

var dialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

// persistConn is a connection, its buffers, and the reply it is reading.
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

	// The reply, in scratch the next reply on the connection reuses.
	hdr    replyHeader
	keep   bool      // the reply lets the connection carry another request
	length int64     // its declared body length, -1 for none
	reply  replyBody // its body, as its framing delimits it
	sized  frame     // the framing of a body of declared length
	body   Body      // what Stream hands the caller
	left   int       // what the header bound leaves of the block being read
	long   []byte    // a line that outgrew br
}

// roundTrip sends a request on a connection to c's server and reads
// the reply's status line and header: the body is then pc.reply, and
// release hands pc back.
func (c *Client) roundTrip(method, path string, body []byte, header []string) (pc *persistConn, status int, err error) {
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	for fresh := false; ; fresh = true {
		if pc, err = c.own.get(c.addr, fresh, deadline); err != nil {
			return nil, 0, err
		}
		if !deadline.IsZero() {
			_ = pc.conn.SetDeadline(deadline)
			pc.deadline = true
		}
		status, unanswered, err := pc.exchange(c, method, path, body, header)
		if err == nil {
			return pc, status, nil
		}
		_ = pc.conn.Close()
		// Sent again only if the method changes nothing on the server, by
		// net/http's list.
		if !unanswered || !pc.reused || fresh || !slices.Contains([]string{http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace}, method) {
			return nil, 0, err
		}
	}
}

// get takes an idle connection to addr that is still open, or dials one,
// by the deadline if there is one, when there is none or fresh asks for
// a new one.
func (t *transport) get(addr string, fresh bool, deadline time.Time) (*persistConn, error) {
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
		d := dialer
		d.Deadline = deadline
		dial = d.Dial
	}
	c, err := dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	pc := &persistConn{t: t, addr: addr, conn: c}
	if sc, ok := c.(syscall.Conn); ok {
		pc.raw, _ = sc.SyscallConn()
	}
	pc.br, pc.bw = bufio.NewReaderSize(c, 4<<10), bufio.NewWriterSize(c, 4<<10)
	return pc, nil
}

// release ends pc's request: it goes back to the idle list if its reply
// ended cleanly, lets it be reused, and left nothing more on it, and is
// closed otherwise.
func (pc *persistConn) release() {
	if pc.reply.err != io.EOF || !pc.keep || pc.br.Buffered() > 0 {
		_ = pc.conn.Close()
		return
	}
	if pc.deadline {
		// Cleared, so that a passed deadline does not fail alive's probe.
		_ = pc.conn.SetDeadline(time.Time{})
		pc.deadline = false
	}
	pc.idleAt = time.Now()
	t := pc.t
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

// exchange writes the request and reads the reply's header. unanswered
// says it failed before any byte of a reply arrived, and not for the
// deadline.
func (pc *persistConn) exchange(c *Client, method, path string, body []byte, header []string) (status int, unanswered bool, err error) {
	_, werr := pc.bw.Write(c.appendRequest(pc.bw.AvailableBuffer(), method, path, body, header))
	if werr == nil {
		_, werr = pc.bw.Write(body)
	}
	if werr == nil {
		werr = pc.bw.Flush()
	}
	// A request the connection failed to carry may still have been
	// answered: a server can refuse a body before reading it, and close.
	if _, err := pc.br.Peek(1); err != nil {
		if werr != nil {
			err = werr
		}
		return 0, !errors.Is(err, os.ErrDeadlineExceeded), err
	}
	if status, err = pc.readReply(method); err == nil && status < 200 {
		err = fmt.Errorf("unsupported %d reply", status)
	}
	pc.keep = pc.keep && werr == nil
	return status, false, err
}

// appendRequest appends the request line and header block that
// (*http.Request).Write writes for c.request(method, path, body) once
// header is set on it with Header.Set: the path escaped after the base
// path as URL.RequestURI escapes it, Host, net/http's User-Agent,
// Content-Length as net/http decides it, then the caller's pairs, the
// names canonical, the last value of a name kept, in name order. A pair
// naming one of the headers net/http writes itself is left out; the
// names are the protocols' own tokens.
func (c *Client) appendRequest(dst []byte, method, path string, body []byte, header []string) []byte {
	dst = append(append(dst, method...), ' ')
	dst = appendEscaped(appendEscaped(dst, c.base.Path), path)
	if c.base.Path == "" && path == "" {
		dst = append(dst, '/')
	}
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(append(dst, c.base.Host...), "\r\nUser-Agent: Go-http-client/1.1\r\n"...)
	if len(body) > 0 || method == http.MethodPost || method == http.MethodPut || method == http.MethodPatch {
		dst = append(strconv.AppendInt(append(dst, "Content-Length: "...), int64(len(body)), 10), "\r\n"...)
	}
	name := func(i int) string { return http.CanonicalHeaderKey(header[i]) }
	order := make([]int, 0, 8) // the pairs, by name, the last of a name last
	for i := 0; i+1 < len(header); i += 2 {
		if !slices.Contains([]string{"Host", "User-Agent", "Content-Length", "Transfer-Encoding", "Trailer"}, name(i)) {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(i, j int) int { return strings.Compare(name(i), name(j)) })
	for k, i := range order {
		if k+1 == len(order) || name(order[k+1]) != name(i) {
			value := textproto.TrimString(newlineToSpace.Replace(header[i+1]))
			dst = append(append(append(append(dst, name(i)...), ": "...), value...), "\r\n"...)
		}
	}
	return append(dst, "\r\n"...)
}

var newlineToSpace = strings.NewReplacer("\n", " ", "\r", " ")

// appendEscaped appends s escaped as a URL path: url.URL.EscapedPath's
// escaping, byte by byte.
func appendEscaped(dst []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("-_.~$&+,/:;=@", c) >= 0 {
			dst = append(dst, c)
		} else {
			dst = append(dst, '%', hex[c>>4], hex[c&15])
		}
	}
	return dst
}

// replyHeader is what a reply's header block says that a client acts
// on. Of a name given more than once, the first value is kept (Get's
// reading), except where net/http reads every value.
type replyHeader struct {
	length     []byte // the first Content-Length, trimmed
	lengths    int    // how many Content-Length fields there are
	mismatch   bool   // one of them says another length than the first
	encodings  int    // how many Transfer-Encoding fields there are
	chunked    bool   // the first of them says chunked
	close      bool   // a Connection field says close
	keepAlive  bool   // a Connection field says keep-alive
	badTrailer bool   // a Trailer field names what no trailer may carry
	sizes      []byte // SizeHeader
	sized      bool   // there is a SizeHeader
	gzipped    bool   // EncodingHeader says gzip
	encoded    bool   // there is an EncodingHeader
}

var (
	errHeaderTooLarge = As(ErrBadReply, fmt.Errorf("reply header over %d bytes", maxHeader))
	// Two things net/http reads that no server here sends are refused:
	// a header field folded onto a line of its own (obs-fold), and
	// trailer fields after a chunked body.
	errFolded  = errors.New("unsupported folded header field")
	errTrailer = errors.New("unsupported trailer after chunked body")
)

// readReply reads a reply to a request of method — its status line and
// header block — off pc.br, as http.ReadResponse reads and validates
// them, and frames its body (pc.reply) and says whether the connection
// may carry another request after it (pc.keep) by ReadResponse's rules.
func (pc *persistConn) readReply(method string) (status int, err error) {
	pc.left = maxHeader
	line, err := pc.readLine()
	if err != nil {
		return 0, err
	}
	proto, rest, _ := bytes.Cut(line, []byte(" "))
	code, _, _ := bytes.Cut(bytes.TrimLeft(rest, " "), []byte(" "))
	if len(code) == 3 {
		status, err = strconv.Atoi(string(code))
	}
	major, minor, ok := http.ParseHTTPVersion(string(proto))
	if len(code) != 3 || err != nil || status < 0 || !ok {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	h := &pc.hdr
	*h = replyHeader{length: h.length[:0], sizes: h.sizes[:0]}
	for {
		if line, err = pc.readLine(); err != nil {
			return 0, err
		} else if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		switch {
		case line[0] == ' ' || line[0] == '\t':
			err = errFolded
		// A name is tokens (RFC 9110 tchar) and spaces.
		case !ok || len(k) == 0 || bytes.ContainsFunc(k, func(r rune) bool { return r < ' ' || r >= 0x7f || strings.ContainsRune(`"(),/:;<=>?@[\]{}`, r) }) ||
			bytes.ContainsFunc(v, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }):
			err = fmt.Errorf("malformed header line %q", line)
		}
		if err != nil {
			return 0, err
		}
		// A name holding a space is kept by net/http as it stands, and so
		// is none of these.
		h.add(k, bytes.Trim(v, " \t"))
	}

	// The rest is readTransfer's, in its order.
	pc.keep = major >= 1 && !h.close && (major > 1 || minor > 0 || h.keepAlive)
	if major == 0 && minor == 0 {
		major, minor = 1, 1
	}
	chunked := h.encodings > 0 && (major > 1 || major == 1 && minor > 0)
	pc.length = -1
	if h.lengths > 0 {
		n, perr := strconv.ParseUint(string(h.length), 10, 63)
		pc.length, err = int64(n), perr
	}
	if err != nil || h.mismatch || chunked && (h.encodings > 1 || !h.chunked || h.badTrailer) {
		return 0, errors.New("malformed Content-Length, Transfer-Encoding or Trailer")
	}
	pc.reply = replyBody{src: &pc.sized}
	switch {
	case method == http.MethodHead || status/100 == 1 || status == http.StatusNoContent || status == http.StatusNotModified:
		pc.length = 0
	case chunked:
		pc.length = -1
		pc.reply = replyBody{src: httputil.NewChunkedReader(pc.br), chunked: true}
	case pc.length < 0:
		pc.keep = false // the body runs to the end of the connection
		pc.reply.src = pc.br
	}
	pc.sized = frame{br: pc.br, left: max(pc.length, 0)}
	pc.reply.br = pc.br
	return status, nil
}

// add takes in one field of the header.
func (h *replyHeader) add(name, value []byte) {
	switch {
	case foldEq(name, "Content-Length"):
		if h.lengths == 0 {
			h.length = append(h.length, value...)
		} else if !bytes.Equal(value, h.length) {
			h.mismatch = true
		}
		h.lengths++
	case foldEq(name, "Transfer-Encoding"):
		if h.encodings == 0 {
			h.chunked = foldEq(value, "chunked")
		}
		h.encodings++
	case foldEq(name, "Connection"):
		h.close = h.close || hasToken(value, "close")
		h.keepAlive = h.keepAlive || hasToken(value, "keep-alive")
	case foldEq(name, "Trailer"):
		h.badTrailer = h.badTrailer || hasToken(value, "Transfer-Encoding", "Trailer", "Content-Length")
	case foldEq(name, SizeHeader) && !h.sized:
		h.sizes, h.sized = append(h.sizes, value...), true
	case foldEq(name, EncodingHeader) && !h.encoded:
		h.gzipped, h.encoded = string(value) == "gzip", true
	}
}

// readLine reads a line of the header block without its line end, as
// textproto does, against what is left of the header bound. The line is
// valid until the next read.
func (pc *persistConn) readLine() ([]byte, error) {
	line, more, err := pc.br.ReadLine()
	if more {
		pc.long = append(pc.long[:0], line...)
		for more && len(pc.long) <= pc.left {
			if line, more, err = pc.br.ReadLine(); err != nil {
				break
			}
			pc.long = append(pc.long, line...)
		}
		line = pc.long
	}
	if pc.left -= len(line); pc.left < 0 {
		return nil, errHeaderTooLarge
	}
	return line, err
}

// foldEq reports whether b is s, ASCII letters folded: b of s's length
// holding any other byte has fewer runes, and so no Unicode fold of it
// matches.
func foldEq(b []byte, s string) bool { return len(b) == len(s) && strings.EqualFold(string(b), s) }

// hasToken reports whether the comma-separated list holds one of tokens.
func hasToken(list []byte, tokens ...string) bool {
	for len(list) > 0 {
		var elem []byte
		elem, list, _ = bytes.Cut(list, []byte(","))
		for _, t := range tokens {
			if foldEq(bytes.Trim(elem, " \t"), t) {
				return true
			}
		}
	}
	return false
}

// replyBody is a reply's body as its framing delimits it.
type replyBody struct {
	src     io.Reader
	chunked bool          // src is chunked, and the end of the last chunk is followed by the end of the trailer
	br      *bufio.Reader // the connection's, off which src reads
	err     error         // what every later Read returns: io.EOF once the body ended cleanly
}

func (r *replyBody) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.src.Read(p)
	if err == io.EOF && r.chunked {
		if end, _ := r.br.Peek(2); string(end) != "\r\n" {
			err = errTrailer
		}
		_, _ = r.br.Discard(2)
	}
	r.err = err
	return n, err
}
