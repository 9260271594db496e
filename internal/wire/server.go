package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// MaxBody bounds every body this layer reads, request or response. The
// receiver holds a body whole, so this is what a hostile peer can make
// a process allocate per request; it sits above the largest un-chunked
// model-weights file the experiments push.
const MaxBody = 1 << 30

// eagerBody is the largest declared length readBody allocates up front:
// a Content-Length is the peer's claim, and a larger body is only given
// memory as its bytes actually arrive.
const eagerBody = 1 << 20

// readBody reads a whole body of the declared length (negative:
// unknown), refusing one over limit.
func readBody(r io.Reader, length, limit int64) ([]byte, error) {
	if length > limit {
		return nil, ErrTooLarge
	}
	if 0 <= length && length <= eagerBody {
		body := make([]byte, length)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if int64(len(body)) > limit {
		return nil, ErrTooLarge
	}
	return body, err
}

// Request is what a verb is served: the HTTP request, the rest of the
// path after the verb's "*" pattern, and, for a POST or PUT verb, the
// body, already read — unless the verb streams.
type Request struct {
	*http.Request
	Arg  string
	Body []byte
}

// Verb is one row of a protocol's verb table. Path is matched exactly,
// or as a prefix when it ends in "*"; Method "" answers every method,
// without reading a body. Check, if set, judges the path argument
// before the method is looked at. Serve either writes the response and
// returns nil, or returns an error before writing anything and the
// table answers for it.
//
// Stream marks a POST or PUT verb whose body is an object rather than
// a few lines of text: the body is left on the connection for Serve to
// read from r.Request.Body, once, as it judges and stores it, and
// r.Body stays nil. The bound is the same — a body declared over
// MaxBody is refused unread, one that runs over it fails the read — and
// a read that fails is still the table's to answer for, whatever Serve
// makes of it.
type Verb struct {
	Method string
	Path   string
	Check  func(arg string) error
	Stream bool
	Serve  func(w http.ResponseWriter, r *Request) error
}

// NeedArg is the Check of a verb for which a path without an argument
// is no route at all.
func NeedArg(arg string) error {
	if arg == "" {
		return ErrNotFound
	}
	return nil
}

// Handler serves a verb table. The first verb whose Path matches owns
// the request's path: its Check judges the argument, then it, or a
// later verb with the same Path and the request's method, serves, and
// if none has the method the answer is 405. A path no verb matches is
// 404. The order of checks is therefore route, argument, method, body
// bound, then the verb's own; nothing is read of a request that is
// refused before the body bound.
type Handler struct {
	errs  Statuses
	verbs []Verb
}

// NewHandler returns the handler for a protocol: its verb table, and
// the status table its verbs' errors are answered through.
func NewHandler(errs Statuses, verbs ...Verb) *Handler {
	return &Handler{errs: errs, verbs: verbs}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := h.serve(w, r); err != nil {
		http.Error(w, err.Error(), h.errs.code(err))
	}
}

func (h *Handler) serve(w http.ResponseWriter, r *http.Request) error {
	owner := ""
	for _, v := range h.verbs {
		prefix, wild := strings.CutSuffix(v.Path, "*")
		arg, ok := strings.CutPrefix(r.URL.Path, prefix)
		if !ok || (!wild && arg != "") || (owner != "" && owner != v.Path) {
			continue
		}
		if owner == "" && v.Check != nil {
			if err := v.Check(arg); err != nil {
				return err
			}
		}
		owner = v.Path
		if v.Method != "" && v.Method != r.Method {
			continue
		}
		req := &Request{Request: r, Arg: arg}
		if (v.Method == http.MethodPost || v.Method == http.MethodPut) && r.ContentLength != 0 {
			if r.ContentLength > MaxBody {
				return ErrTooLarge
			}
			bounded := http.MaxBytesReader(w, r.Body, MaxBody)
			if v.Stream {
				body := &streamedBody{ReadCloser: bounded}
				r.Body = body
				err := v.Serve(w, req)
				if body.err != nil {
					return body.err
				}
				return err
			}
			var err error
			if req.Body, err = readBody(bounded, r.ContentLength, MaxBody); err != nil {
				return bodyError(err)
			}
		}
		return v.Serve(w, req)
	}
	if owner == "" {
		return ErrNotFound
	}
	w.WriteHeader(http.StatusMethodNotAllowed)
	return nil
}

// bodyError types a failed read of a request body for the status table.
func bodyError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.Is(err, ErrTooLarge) || errors.As(err, &tooLarge) {
		return ErrTooLarge
	}
	return As(ErrBadRequest, err)
}

// streamedBody is the body a streaming verb reads. It types a failed
// read as the handler types one of its own, and remembers it.
type streamedBody struct {
	io.ReadCloser
	err error
}

func (b *streamedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil && err != io.EOF {
		err = bodyError(err)
		b.err = err
	}
	return n, err
}

// Respond is how a verb answers 200 with a body: it declares the
// body's length, so that no reply goes out chunked and the client can
// size what it reads, then writes the parts one after another without
// joining them. Write errors are dropped: the client has gone, and nobody is left to
// tell.
func Respond(w http.ResponseWriter, contentType string, parts ...[]byte) {
	length := 0
	for _, part := range parts {
		length += len(part)
	}
	w.Header()["Content-Type"] = shared(contentType)
	w.Header().Set("Content-Length", strconv.Itoa(length))
	for _, part := range parts {
		_, _ = w.Write(part)
	}
}

// sharedValues are the header values replies carry, each as the
// one-element slice a header map stores: a reply is assigned one of
// these, which nothing writes to, where Header.Set would allocate it a
// slice of its own.
var sharedValues = map[string][]string{
	"application/octet-stream":  {"application/octet-stream"},
	"application/json":          {"application/json"},
	"text/plain":                {"text/plain"},
	"text/plain; charset=utf-8": {"text/plain; charset=utf-8"},
	"gzip":                      {"gzip"},
}

func shared(value string) []string {
	if v, ok := sharedValues[value]; ok {
		return v
	}
	return []string{value}
}

// SizeHeader carries what an object reply's objects inflate to, one
// decimal size per object in reply order, comma-separated. It spares
// the client from growing a buffer while it inflates; Body.Rest and
// Body.Frame say how little it is trusted.
const SizeHeader = "X-Gear-Size"

// RespondObject answers with one object as it is stored.
func RespondObject(w http.ResponseWriter, o Object) {
	if o.Gzip {
		w.Header()[EncodingHeader] = shared("gzip")
	}
	w.Header().Set(SizeHeader, strconv.FormatInt(o.Size, 10))
	Respond(w, "application/octet-stream", o.Stored)
}

// RespondFrames answers with head, then the objects in WriteFrames'
// framing. The stored bytes go out as they lie in the pool: a batch
// costs no second copy of its objects.
func RespondFrames(w http.ResponseWriter, head []byte, objects []Object) {
	parts := make([][]byte, 1, 1+2*len(objects))
	parts[0] = head
	var sizes []byte
	for i, o := range objects {
		parts = append(parts, frameHeader(o), o.Stored)
		if i > 0 {
			sizes = append(sizes, ',')
		}
		sizes = strconv.AppendInt(sizes, o.Size, 10)
	}
	if len(objects) > 0 {
		w.Header().Set(SizeHeader, string(sizes))
	}
	Respond(w, "application/octet-stream", parts...)
}

// The server's fixed limits. There is no whole-request read or write
// timeout: an upload or a weights download legitimately takes as long
// as its bytes do.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 15 * time.Second
)

// Serve serves h on ln until SIGINT or SIGTERM, then stops accepting,
// lets requests in flight finish for up to shutdownGrace, and returns.
func Serve(ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	failed := make(chan error, 1)
	go func() { failed <- srv.Serve(ln) }()
	select {
	case err := <-failed:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	return srv.Shutdown(grace)
}
