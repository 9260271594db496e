package prefetch

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/wire"
)

// The profile library's HTTP protocol: the verb table below over
// internal/wire. Framing and status map: DESIGN.md, "Wire protocols".
// Image references contain ':' and '/', so a ref is the rest of the
// path, not one segment; refs with whitespace cannot ride the line
// framing and are rejected at both ends.

// statuses is the protocol's error table. A profile that is present but
// undecodable has no row: the honest verdict is 500, not 404.
var statuses = wire.Statuses{{Err: ErrNoProfile, Code: http.StatusNotFound}}

// refVerb is a verb whose path argument is an image reference.
func refVerb(method, path string, serve func(w http.ResponseWriter, ref string) error) wire.Verb {
	return wire.Verb{Method: method, Path: path, Serve: func(w http.ResponseWriter, r *wire.Request) error {
		if err := validateRef(r.Arg); err != nil {
			return wire.As(wire.ErrBadRequest, err)
		}
		return serve(w, r.Arg)
	}}
}

// NewLibraryHandler serves lib over HTTP so gearctl (and fleet tooling)
// can inspect and prune a daemon's persisted profiles.
func NewLibraryHandler(lib *Library) *wire.Handler {
	return wire.NewHandler(statuses,
		wire.Verb{Method: http.MethodGet, Path: "/profile/list", Serve: func(w http.ResponseWriter, _ *wire.Request) error {
			var out []byte
			for _, info := range lib.List() {
				if validateRef(info.Ref) != nil {
					continue // unframeable ref cannot ride the wire
				}
				out = fmt.Appendf(out, "%s %d %d\n", info.Ref, info.Entries, info.Bytes)
			}
			wire.Respond(w, "text/plain", out)
			return nil
		}},
		telemetry.Verb("/profile/metrics", lib),
		refVerb(http.MethodGet, "/profile/dump/*", func(w http.ResponseWriter, ref string) error {
			p, err := lib.Get(ref)
			if err != nil {
				return err
			}
			out := fmt.Appendf(nil, "%s %d %d\n", p.ImageRef, len(p.Entries), p.TotalBytes())
			for _, e := range p.Entries {
				out = fmt.Appendf(out, "%s %d\n", e.Fingerprint, e.Size)
			}
			wire.Respond(w, "text/plain", out)
			return nil
		}),
		refVerb(http.MethodPost, "/profile/delete/*", func(w http.ResponseWriter, ref string) error {
			if !lib.Delete(ref) {
				return fmt.Errorf("prefetch: %s: %w", ref, ErrNoProfile)
			}
			wire.Respond(w, "text/plain; charset=utf-8", []byte("ok\n"))
			return nil
		}),
	)
}

// validateRef rejects image references the line framing cannot carry.
func validateRef(ref string) error {
	if ref == "" {
		return errors.New("prefetch: empty image reference")
	}
	if strings.ContainsAny(ref, " \t\n\r") {
		return fmt.Errorf("prefetch: image reference %q contains whitespace", ref)
	}
	return nil
}

// LibraryClient talks to a remote profile library over HTTP — the
// gearctl profile subcommand's transport.
type LibraryClient struct {
	w *wire.Client
}

// NewLibraryClient returns a client for the library served at baseURL.
func NewLibraryClient(baseURL string, hc *http.Client) *LibraryClient {
	return &LibraryClient{w: wire.NewClient("prefetch client", baseURL, hc, statuses)}
}

// List fetches the profile listing.
func (c *LibraryClient) List() ([]Info, error) {
	r, err := c.w.Do(http.MethodGet, "/profile/list", nil)
	if err != nil {
		return nil, err
	}
	var infos []Info
	for _, line := range wire.Lines(r.Body) {
		info, err := parseListLine(line)
		if err != nil {
			return nil, fmt.Errorf("prefetch client: list: %w", err)
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// Dump fetches ref's full profile (entries in first-access order): a
// listing line for the profile, then one "<fingerprint> <size>" line
// per entry.
func (c *LibraryClient) Dump(ref string) (*Profile, error) {
	if err := validateRef(ref); err != nil {
		return nil, err
	}
	r, err := c.w.Do(http.MethodGet, "/profile/dump/"+ref, nil)
	if err != nil {
		return nil, err
	}
	p, err := parseDump(wire.Lines(r.Body))
	if err != nil {
		return nil, fmt.Errorf("prefetch client: dump %s: %w", ref, err)
	}
	return p, nil
}

// parseDump decodes a dump reply's lines.
func parseDump(lines []string) (*Profile, error) {
	if len(lines) == 0 {
		return nil, errors.New("empty response")
	}
	header, err := parseListLine(lines[0])
	if err != nil {
		return nil, err
	}
	p := &Profile{ImageRef: header.Ref}
	for _, line := range lines[1:] {
		fp, rest, err := wire.Record(line, 1)
		if err != nil {
			return nil, err
		}
		size, err := wire.Ints(rest)
		if err != nil || size[0] < 0 {
			return nil, fmt.Errorf("bad size %q", rest[0])
		}
		p.Entries = append(p.Entries, Entry{Fingerprint: fp, Size: size[0]})
	}
	if len(p.Entries) != header.Entries {
		return nil, fmt.Errorf("%d entries, header says %d", len(p.Entries), header.Entries)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Delete removes ref's profile from the remote library.
func (c *LibraryClient) Delete(ref string) error {
	if err := validateRef(ref); err != nil {
		return err
	}
	_, err := c.w.Do(http.MethodPost, "/profile/delete/"+ref, nil, "Content-Type", "text/plain")
	return err
}

// parseListLine decodes one "<ref> <entries> <bytes>" listing line. A
// field holds no whitespace, so the ref is one the framing can carry.
func parseListLine(line string) (Info, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return Info{}, fmt.Errorf("malformed listing line %q", line)
	}
	nums, err := wire.Ints(fields[1:])
	if err != nil || nums[1] < 0 {
		return Info{}, fmt.Errorf("listing line %q: bad count", line)
	}
	return Info{Ref: fields[0], Entries: int(nums[0]), Bytes: nums[1]}, nil
}
