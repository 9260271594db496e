package wire

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/gear-image/gear/internal/hashing"
)

// Errors every protocol shares. Each but ErrBadReply has a row in the
// base table below.
var (
	// ErrBadRequest is a request the verb could not read: unparsable
	// framing, a broken body stream.
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound is a path that names nothing the server has: no verb,
	// or a verb without its argument. Its text is net/http's own.
	ErrNotFound = errors.New("404 page not found")
	// ErrMethod is a verb asked with a method it does not answer.
	ErrMethod = errors.New("method not allowed")
	// ErrTooLarge is a request or response body over MaxBody.
	ErrTooLarge = errors.New("body exceeds the wire limit")
	// ErrBadReply is a 2xx reply whose body is not what the verb
	// answers: cut short, misframed, failing its checksum, or of another
	// size than it declared. It has no status: it is the client's
	// verdict on a reply, never a server's on a request.
	ErrBadReply = errors.New("malformed reply")
)

// Status is one row of a protocol's error table.
type Status struct {
	Err  error
	Code int
}

// Statuses is a protocol's two-way error table. The server helper reads
// it error to status: the first row the handler's error Is decides the
// status, and the error's text is the body. The client helper reads the
// same rows status to error, so an error a handler returned comes out of
// the client call typed the same (errors.Is) on the other side.
type Statuses []Status

// base is the rows every protocol's table ends with.
var base = Statuses{
	{ErrBadRequest, http.StatusBadRequest},
	{hashing.ErrMalformed, http.StatusBadRequest},
	{ErrNotFound, http.StatusNotFound},
	{ErrMethod, http.StatusMethodNotAllowed},
	{ErrTooLarge, http.StatusRequestEntityTooLarge},
}

// rows is the protocol's rows, then the base rows.
func (s Statuses) rows() Statuses { return append(s[:len(s):len(s)], base...) }

// code is the status err answers with: 500 unless a row says otherwise.
func (s Statuses) code(err error) int {
	for _, row := range s.rows() {
		if errors.Is(err, row.Err) {
			return row.Code
		}
	}
	return http.StatusInternalServerError
}

// kind is the error a reply's status stands for, nil when no row has
// it. Several errors may share a status; the server sent its error's
// text as the body, so the row whose text the body carries is the one.
// A body that carries none is only known by its status: that is the
// base row's error, never one protocol row picked over another.
func (s Statuses) kind(code int, body string) error {
	for _, row := range s.rows() {
		if row.Code == code && strings.Contains(body, row.Err.Error()) {
			return row.Err
		}
	}
	for _, row := range base {
		if row.Code == code {
			return row.Err
		}
	}
	return nil
}

// As marks err as an instance of kind for the status table while
// leaving its text, which is the body on the wire, as it is.
func As(kind, err error) error { return &marked{error: err, kind: kind} }

type marked struct {
	error
	kind error
}

func (m *marked) Unwrap() []error { return []error{m.error, m.kind} }

// StatusError is a reply whose status is not 2xx. It unwraps to the
// error its status stands for in the protocol's table, if any.
type StatusError struct {
	Method, Path string // the request
	Code         int
	Body         string // the reply body, trimmed
	kind         error
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: %d %s: %s", e.Method, e.Path, e.Code, http.StatusText(e.Code), e.Body)
}

func (e *StatusError) Unwrap() error { return e.kind }

// Code returns the HTTP status err carries, 0 when it is not a reply.
func Code(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}
