package registry

import (
	"errors"
	"net/http"
	"strings"

	"github.com/gear-image/gear/internal/clientopt"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/wire"
)

// The Docker-side registry's HTTP protocol, loosely modeled on the
// Docker Registry v2 API: the verb table below over internal/wire.
// Framing and status map: DESIGN.md, "Wire protocols".

// statuses is the protocol's error table, read by the handlers one way
// and the Client the other.
var statuses = wire.Statuses{
	{Err: ErrBlobNotFound, Code: http.StatusNotFound},
	{Err: ErrManifestNotFound, Code: http.StatusNotFound},
	{Err: ErrDigestMismatch, Code: http.StatusBadRequest},
}

// splitRef splits a manifest verb's argument. Image names may contain
// slashes ("gear/nginx"); the tag is the final path segment.
func splitRef(arg string) (name, tag string, err error) {
	cut := strings.LastIndex(arg, "/")
	if cut <= 0 || cut == len(arg)-1 {
		return "", "", wire.As(wire.ErrBadRequest, errors.New("want /v2/manifests/{name}/{tag}"))
	}
	return arg[:cut], arg[cut+1:], nil
}

// manifestVerb is a verb on one manifest. A reference that does not
// split is refused whatever the method.
func manifestVerb(method string, serve func(w http.ResponseWriter, name, tag string, body []byte) error) wire.Verb {
	return wire.Verb{Method: method, Path: "/v2/manifests/*",
		Check: func(arg string) error { _, _, err := splitRef(arg); return err },
		Serve: func(w http.ResponseWriter, r *wire.Request) error {
			name, tag, _ := splitRef(r.Arg)
			return serve(w, name, tag, r.Body)
		}}
}

// blobVerb is a verb on one blob, named by its digest. A malformed
// digest is refused whatever the method.
func blobVerb(method string, serve func(w http.ResponseWriter, d hashing.Digest, body []byte) error) wire.Verb {
	return wire.Verb{Method: method, Path: "/v2/blobs/*",
		Check: func(arg string) error { return hashing.Digest(arg).Validate() },
		Serve: func(w http.ResponseWriter, r *wire.Request) error { return serve(w, hashing.Digest(r.Arg), r.Body) }}
}

// NewHandler serves reg over HTTP.
func NewHandler(reg *Registry) *wire.Handler {
	return wire.NewHandler(statuses,
		wire.Verb{Method: http.MethodGet, Path: "/v2/manifests/", Serve: func(w http.ResponseWriter, _ *wire.Request) error {
			refs, _ := reg.ListManifests()
			wire.Respond(w, "text/plain; charset=utf-8", []byte(strings.Join(refs, "\n")))
			return nil
		}},
		manifestVerb(http.MethodGet, func(w http.ResponseWriter, name, tag string, _ []byte) error {
			m, err := reg.GetManifest(name, tag)
			if err != nil {
				return err
			}
			data, err := imagefmt.EncodeManifest(m)
			if err != nil {
				return err
			}
			wire.Respond(w, "application/json", data)
			return nil
		}),
		manifestVerb(http.MethodPut, func(w http.ResponseWriter, name, tag string, body []byte) error {
			m, err := imagefmt.DecodeManifest(body)
			if err != nil {
				return wire.As(wire.ErrBadRequest, err)
			}
			if m.Name != name || m.Tag != tag {
				return wire.As(wire.ErrBadRequest, errors.New("manifest reference does not match URL"))
			}
			if err := reg.PutManifest(m); err != nil {
				return err
			}
			w.WriteHeader(http.StatusCreated)
			return nil
		}),
		blobVerb(http.MethodHead, func(w http.ResponseWriter, d hashing.Digest, _ []byte) error {
			if ok, _ := reg.HasBlob(d); !ok {
				w.WriteHeader(http.StatusNotFound)
			}
			return nil
		}),
		blobVerb(http.MethodGet, func(w http.ResponseWriter, d hashing.Digest, _ []byte) error {
			data, err := reg.GetBlob(d)
			if err != nil {
				return err
			}
			wire.Respond(w, "application/octet-stream", data)
			return nil
		}),
		blobVerb(http.MethodPut, func(w http.ResponseWriter, d hashing.Digest, body []byte) error {
			if err := reg.PutBlob(d, body); err != nil {
				return err
			}
			w.WriteHeader(http.StatusCreated)
			return nil
		}),
	)
}

// Client is an HTTP Store implementation used by daemons talking to a
// remote registry.
type Client struct {
	w *wire.Client
}

var _ Store = (*Client)(nil)

// NewClient returns a client for the registry at baseURL (no trailing
// slash required).
func NewClient(baseURL string, hc *http.Client) *Client {
	return &Client{w: wire.NewClient("registry client", baseURL, hc, clientopt.Options{}, statuses)}
}

// PutManifest implements Store.
func (c *Client) PutManifest(m *imagefmt.Manifest) error {
	data, err := imagefmt.EncodeManifest(m)
	if err != nil {
		return err
	}
	_, err = c.w.Do(http.MethodPut, "/v2/manifests/"+m.Name+"/"+m.Tag, data)
	return err
}

// GetManifest implements Store.
func (c *Client) GetManifest(name, tag string) (*imagefmt.Manifest, error) {
	r, err := c.w.Do(http.MethodGet, "/v2/manifests/"+name+"/"+tag, nil)
	if err != nil {
		return nil, err
	}
	return imagefmt.DecodeManifest(r.Body)
}

// ListManifests implements Store.
func (c *Client) ListManifests() ([]string, error) {
	r, err := c.w.Do(http.MethodGet, "/v2/manifests/", nil)
	if err != nil {
		return nil, err
	}
	return wire.Lines(r.Body), nil
}

// HasBlob implements Store.
func (c *Client) HasBlob(d hashing.Digest) (bool, error) {
	_, err := c.w.Do(http.MethodHead, "/v2/blobs/"+string(d), nil)
	if wire.Code(err) == http.StatusNotFound {
		return false, nil
	}
	return err == nil, err
}

// PutBlob implements Store.
func (c *Client) PutBlob(d hashing.Digest, data []byte) error {
	_, err := c.w.Do(http.MethodPut, "/v2/blobs/"+string(d), data)
	return err
}

// GetBlob implements Store. A blob is read off the connection into one
// buffer of its declared length.
func (c *Client) GetBlob(d hashing.Digest) (blob []byte, err error) {
	err = c.w.Stream(http.MethodGet, "/v2/blobs/"+string(d), nil, func(b *wire.Body) error {
		var err error
		blob, err = b.Rest(false)
		return err
	})
	if err != nil {
		return nil, err
	}
	return blob, nil
}
