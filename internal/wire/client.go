package wire

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"

	"github.com/gear-image/gear/internal/clientopt"
)

// Client issues a protocol's requests against one server.
type Client struct {
	name, base string
	http       *http.Client
	opts       clientopt.Options
	errs       Statuses
}

// NewClient returns a client for the server at baseURL. name opens
// every error it returns ("registry client"); failure replies are typed
// through errs. A nil hc is http.DefaultClient. o is the retry policy:
// only a request that fails in transport is sent again; any reply,
// whatever its status, is the server's answer.
func NewClient(name, baseURL string, hc *http.Client, o clientopt.Options, errs Statuses) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{name: name, base: strings.TrimSuffix(baseURL, "/"), http: hc, opts: o, errs: errs}
}

// Reply is a 2xx response, its body read whole.
type Reply struct {
	Header http.Header
	Body   []byte
}

// Do sends one request — body nil for none, header as name, value pairs
// — and returns the reply once its body has been read to the end (at
// most MaxBody) and closed, which is what hands the connection back for
// reuse. A reply outside 2xx is a *StatusError typed by the protocol's
// status table.
func (c *Client) Do(method, path string, body []byte, header ...string) (r *Reply, err error) {
	for try := 0; try < c.opts.Attempts(); try++ {
		c.opts.Sleep(try)
		var req *http.Request
		if req, err = http.NewRequest(method, c.base+path, bytes.NewReader(body)); err != nil {
			break
		}
		for i := 0; i+1 < len(header); i += 2 {
			req.Header.Set(header[i], header[i+1])
		}
		var resp *http.Response
		if resp, err = c.http.Do(req); err == nil {
			r, err = read(req, resp, c.errs)
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return r, nil
}

func read(req *http.Request, resp *http.Response, errs Statuses) (*Reply, error) {
	defer func() { _ = resp.Body.Close() }()
	length := resp.ContentLength
	if req.Method == http.MethodHead {
		length = 0
	}
	body, err := readBody(resp.Body, length, MaxBody)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		text := strings.TrimSpace(string(body))
		return nil, &StatusError{Method: req.Method, Path: req.URL.Path, Code: resp.StatusCode, Body: text,
			kind: errs.kind(resp.StatusCode, text)}
	}
	return &Reply{Header: resp.Header, Body: body}, nil
}
