package gearregistry

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/gear-image/gear/internal/clientopt"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/wire"
)

// The Gear Registry's HTTP protocol: the verb tables below over
// internal/wire. Framing and status map: DESIGN.md, "Wire protocols".

// statuses is the protocol's error table, read by the handlers one way
// and the Client the other.
var statuses = wire.Statuses{
	{Err: ErrNotFound, Code: http.StatusNotFound},
	{Err: ErrBadRange, Code: http.StatusRequestedRangeNotSatisfiable},
	{Err: ErrFingerprintMismatch, Code: http.StatusBadRequest},
}

// Pool is the read side of a Gear file pool, what the query, download
// and batch verbs serve: a Registry, or a peer's cache.
type Pool interface {
	Query(fp hashing.Fingerprint) (bool, error)
	// Stored returns the object exactly as it crosses the wire.
	Stored(fp hashing.Fingerprint) (wire.Object, error)
}

// fpVerb is a verb whose path argument is one fingerprint; a path
// without one is no route.
func fpVerb(method, path string, serve func(w http.ResponseWriter, fp hashing.Fingerprint) error) wire.Verb {
	return wire.Verb{Method: method, Path: path, Check: wire.NeedArg, Serve: func(w http.ResponseWriter, r *wire.Request) error {
		return serve(w, hashing.Fingerprint(r.Arg))
	}}
}

// readVerbs is the read-only subset of the protocol over p.
func readVerbs(p Pool) []wire.Verb {
	return []wire.Verb{
		fpVerb(http.MethodGet, "/gear/query/*", func(w http.ResponseWriter, fp hashing.Fingerprint) error {
			present, err := p.Query(fp)
			if err == nil && !present {
				w.WriteHeader(http.StatusNotFound)
			}
			return err
		}),
		fpVerb(http.MethodGet, "/gear/download/*", func(w http.ResponseWriter, fp hashing.Fingerprint) error {
			o, err := p.Stored(fp)
			if err != nil {
				return err
			}
			wire.RespondObject(w, o)
			return nil
		}),
		// Batches are all-or-nothing: every object is located before the
		// first write, because a status can only be sent up front.
		{Method: http.MethodPost, Path: "/gear/batch", Serve: func(w http.ResponseWriter, r *wire.Request) error {
			fps := wire.List(r.Body)
			objects := make([]wire.Object, len(fps))
			for i, fp := range fps {
				var err error
				if objects[i], err = p.Stored(fp); err != nil {
					return err
				}
			}
			wire.RespondFrames(w, nil, objects)
			return nil
		}},
	}
}

// errReadOnly refuses an upload to a read-only pool. Its text is on the
// wire, and is the peer server's, the one read-only pool there is.
var errReadOnly = wire.As(wire.ErrMethod, errors.New("peer: peers do not accept uploads"))

// NewPoolHandler serves p over the registry's read verbs, so a stock
// Client can query and download from it; uploads are refused.
func NewPoolHandler(p Pool) *wire.Handler {
	return wire.NewHandler(statuses, append(readVerbs(p),
		fpVerb("", "/gear/upload/*", func(http.ResponseWriter, hashing.Fingerprint) error { return errReadOnly }))...)
}

// NewHandler serves reg over the whole protocol.
func NewHandler(reg *Registry) *wire.Handler {
	return wire.NewHandler(statuses, append(readVerbs(reg),
		// The one verb whose request is an object: it is verified and
		// compressed as it comes off the connection.
		wire.Verb{Method: http.MethodPut, Path: "/gear/upload/*", Check: wire.NeedArg, Stream: true, Serve: func(w http.ResponseWriter, r *wire.Request) error {
			if err := reg.UploadFrom(hashing.Fingerprint(r.Arg), r.Request.Body, r.ContentLength); err != nil {
				return err
			}
			w.WriteHeader(http.StatusCreated)
			return nil
		}},
		wire.Verb{Method: http.MethodPost, Path: "/gear/querybatch", Serve: func(w http.ResponseWriter, r *wire.Request) error {
			body, err := wire.Inflate(r.Body, r.Header.Get(wire.EncodingHeader) == "gzip")
			if err != nil {
				return wire.As(wire.ErrBadRequest, err)
			}
			fps := wire.List(body)
			present, err := reg.QueryBatch(fps)
			if err != nil {
				return err
			}
			out := wire.AppendVerdicts(nil, fps, present)
			if strings.Contains(r.Header.Get(wire.AcceptHeader), "gzip") {
				var gzipped bool
				if out, gzipped = wire.Deflate(out); gzipped {
					w.Header().Set(wire.EncodingHeader, "gzip")
				}
			}
			wire.Respond(w, "text/plain", out)
			return nil
		}},
		wire.Verb{Method: http.MethodPost, Path: "/gear/gc", Serve: func(w http.ResponseWriter, r *wire.Request) error {
			fps, err := wire.ParseList(r.Body)
			if err != nil {
				return err
			}
			keep := make(map[hashing.Fingerprint]bool, len(fps))
			for _, fp := range fps {
				keep[fp] = true
			}
			removed, freed := reg.Retain(keep)
			wire.Respond(w, "text/plain; charset=utf-8", fmt.Appendf(nil, "removed=%d freed=%d\n", removed, freed))
			return nil
		}},
		wire.Verb{Method: http.MethodGet, Path: "/gear/range/*", Serve: func(w http.ResponseWriter, r *wire.Request) error {
			// The argument is "{fingerprint}/{off}/{n}"; a fingerprint holds
			// no '/', so the split is unambiguous. Any other shape is no route.
			parts := strings.Split(r.Arg, "/")
			nums, err := wire.Ints(parts[1:])
			if err != nil || len(parts) != 3 || parts[0] == "" {
				return wire.ErrNotFound
			}
			return reg.serveRange(w, hashing.Fingerprint(parts[0]), nums[0], nums[1])
		}},
	)...)
}

// parseRangeHeader decodes the line a range reply opens with:
// "<fingerprint> <off> <n> <total>", echoing the request and carrying
// the object's uncompressed size; exactly n raw bytes follow it. A
// header with negative numbers, or a range that does not fit the
// declared total, is rejected.
func parseRangeHeader(header string) (fp hashing.Fingerprint, off, n int64, err error) {
	fp, fields, err := wire.Record(header, 3)
	if err != nil {
		return "", 0, 0, err
	}
	nums, err := wire.Ints(fields)
	if err != nil {
		return "", 0, 0, fmt.Errorf("range header %q: %w", header, err)
	}
	off, n, total := nums[0], nums[1], nums[2]
	if off < 0 || n <= 0 || off > total || n > total-off {
		return "", 0, 0, fmt.Errorf("range header %q: %w", header, ErrBadRange)
	}
	return fp, off, n, nil
}

// Client is an HTTP Store implementation used by Gear drivers fetching
// files from a remote Gear Registry.
type Client struct {
	w *wire.Client
}

var _ Store = (*Client)(nil)

// NewClient returns a client for the Gear Registry at baseURL.
func NewClient(baseURL string, hc *http.Client) *Client {
	return &Client{w: wire.NewClient("gearregistry client", baseURL, hc, clientopt.Options{}, statuses)}
}

// NewClientWithOptions returns a registry store client configured by
// the shared client options (gear.ClientOptions): Timeout bounds each
// request's transport, and Retries/Backoff wrap the client in a
// RetryStore. The zero Options behaves exactly like NewClient(baseURL,
// nil) — one attempt, wire's transport.
func NewClientWithOptions(baseURL string, o clientopt.Options) (Store, error) {
	c := NewClient(baseURL, o.HTTPClient())
	if o.Retries <= 0 {
		return c, nil
	}
	return NewRetryStoreOptions(c, o)
}

// badReply reports a 2xx reply whose body is not what verb answers.
func badReply(verb string, err error) error {
	return wire.As(wire.ErrBadReply, fmt.Errorf("gearregistry client: %s: %w", verb, err))
}

// Query implements Store.
func (c *Client) Query(fp hashing.Fingerprint) (bool, error) {
	_, err := c.w.Do(http.MethodGet, "/gear/query/"+string(fp), nil)
	if wire.Code(err) == http.StatusNotFound {
		return false, nil
	}
	return err == nil, err
}

// Upload implements Store.
func (c *Client) Upload(fp hashing.Fingerprint, data []byte) error {
	_, err := c.w.Do(http.MethodPut, "/gear/upload/"+string(fp), data)
	return err
}

// Download implements Store. A compressed payload (marked with the
// X-Gear-Encoding header) is inflated straight off the connection; the
// wire size is the body length as transported.
func (c *Client) Download(fp hashing.Fingerprint) (payload []byte, wireBytes int64, err error) {
	err = c.w.Stream(http.MethodGet, "/gear/download/"+string(fp), nil, func(b *wire.Body) error {
		var err error
		if payload, err = b.Rest(b.Header.Get(wire.EncodingHeader) == "gzip"); err != nil {
			return fmt.Errorf("download %s: %w", fp, err)
		}
		wireBytes = b.Received()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return payload, wireBytes, nil
}

// GC asks the remote registry to retain only the given fingerprints,
// returning how many objects it removed and the stored bytes freed.
func (c *Client) GC(keep []hashing.Fingerprint) (removed int, freed int64, err error) {
	r, err := c.w.Do(http.MethodPost, "/gear/gc", wire.AppendList(nil, keep), "Content-Type", "text/plain")
	if err != nil {
		return 0, 0, err
	}
	if _, err := fmt.Sscanf(string(r.Body), "removed=%d freed=%d", &removed, &freed); err != nil {
		return 0, 0, badReply("gc", fmt.Errorf("parse %q: %w", r.Body, err))
	}
	return removed, freed, nil
}

// DownloadBatch implements BatchDownloader over HTTP via POST
// /gear/batch, inflating each frame straight off the connection. The
// wire size is the full response body as transported (object headers
// included).
func (c *Client) DownloadBatch(fps []hashing.Fingerprint) ([][]byte, int64, error) {
	if len(fps) == 0 {
		return nil, 0, nil
	}
	payloads := make([][]byte, 0, len(fps))
	var wireBytes int64
	err := c.w.Stream(http.MethodPost, "/gear/batch", wire.AppendList(nil, fps), func(b *wire.Body) error {
		for i := 0; ; i++ {
			header, err := b.Line()
			if err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("batch: %w", err)
			}
			fp, stored, gzipped, err := wire.ParseFrame(header)
			if err != nil {
				return fmt.Errorf("batch: %w", err)
			}
			// The echo is checked frame by frame, before the frame's
			// bytes are given any memory.
			if i >= len(fps) {
				return fmt.Errorf("batch: reply has more entries than the request's %d", len(fps))
			} else if fp != fps[i] {
				return fmt.Errorf("batch: entry %d is %s, want %s", i, fp, fps[i])
			}
			payload, err := b.Frame(i, stored, gzipped)
			if err != nil {
				return fmt.Errorf("batch %s: %w", fp, err)
			}
			payloads = append(payloads, payload)
		}
		if len(payloads) != len(fps) {
			return fmt.Errorf("batch: reply has %d entries, request had %d", len(payloads), len(fps))
		}
		wireBytes = b.Received()
		return nil
	}, "Content-Type", "text/plain")
	if err != nil {
		return nil, 0, err
	}
	return payloads, wireBytes, nil
}

// QueryBatch implements BatchQuerier over HTTP via POST
// /gear/querybatch: one round trip answers presence for a whole
// fingerprint set. Large request bodies are gzip-framed, and the client
// advertises that it accepts a gzip-framed response.
func (c *Client) QueryBatch(fps []hashing.Fingerprint) ([]bool, error) {
	if len(fps) == 0 {
		return nil, nil
	}
	header := []string{"Content-Type", "text/plain", wire.AcceptHeader, "gzip"}
	body, gzipped := wire.Deflate(wire.AppendList(nil, fps))
	if gzipped {
		header = append(header, wire.EncodingHeader, "gzip")
	}
	r, err := c.w.Do(http.MethodPost, "/gear/querybatch", body, header...)
	if err != nil {
		return nil, err
	}
	if body, err = wire.Inflate(r.Body, r.Header.Get(wire.EncodingHeader) == "gzip"); err != nil {
		return nil, badReply("querybatch", err)
	}
	got, present, err := wire.ParseVerdicts(body)
	if err == nil {
		err = wire.CheckEcho(got, fps)
	}
	if err != nil {
		return nil, badReply("querybatch", err)
	}
	return present, nil
}

// DownloadRange implements RangeDownloader over HTTP via GET
// /gear/range. The wire size is the framed body as transported.
func (c *Client) DownloadRange(fp hashing.Fingerprint, off, n int64) (payload []byte, wireBytes int64, err error) {
	err = c.w.Stream(http.MethodGet, fmt.Sprintf("/gear/range/%s/%d/%d", fp, off, n), nil, func(b *wire.Body) error {
		header, err := b.Line()
		if err != nil {
			return fmt.Errorf("range: no header: %w", err)
		}
		gotFP, gotOff, gotN, err := parseRangeHeader(header)
		if err == nil && (gotFP != fp || gotOff != off || gotN != n) {
			err = fmt.Errorf("asked for %s [%d,+%d), server echoed %s [%d,+%d)", fp, off, n, gotFP, gotOff, gotN)
		}
		if err != nil {
			return fmt.Errorf("range: %w", err)
		}
		// The slice is the next n bytes — n being, now that the echo
		// matches, this client's own number — and the end of the body.
		if payload, err = b.Frame(0, n, false); err != nil {
			return fmt.Errorf("range: %w", err)
		}
		if !b.Ended() {
			return fmt.Errorf("range %s [%d,+%d): body runs on past the slice", fp, off, n)
		}
		wireBytes = b.Received()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return payload, wireBytes, nil
}
