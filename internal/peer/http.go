package peer

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/wire"
)

// The tracker's HTTP protocol: the verb table below over internal/wire.
// Framing and status map: DESIGN.md, "Wire protocols". A peer Server
// has no protocol of its own: it is a gearregistry.Pool, served by
// gearregistry.NewPoolHandler.

// noExclude is the locate body's "no requester to exclude" marker, and
// the locate response's "no holders".
const noExclude = "-"

// NewTrackerHandler serves t over HTTP. Every request the tracker
// refuses is the requester's fault, so every error is a 400.
func NewTrackerHandler(t *Tracker) *wire.Handler {
	membership := func(apply func(holder string, fps ...hashing.Fingerprint) error) func(http.ResponseWriter, *wire.Request) error {
		return func(w http.ResponseWriter, r *wire.Request) error {
			holder, fps, err := parseMembershipBody(r.Body)
			if err == nil {
				err = apply(holder, fps...)
			}
			if err != nil {
				return wire.As(wire.ErrBadRequest, err)
			}
			wire.Respond(w, "text/plain; charset=utf-8", fmt.Appendf(nil, "ok n=%d\n", len(fps)))
			return nil
		}
	}
	return wire.NewHandler(nil,
		wire.Verb{Method: http.MethodPost, Path: "/peer/announce", Serve: membership(t.Announce)},
		wire.Verb{Method: http.MethodPost, Path: "/peer/withdraw", Serve: membership(t.Withdraw)},
		wire.Verb{Method: http.MethodPost, Path: "/peer/locate", Serve: func(w http.ResponseWriter, r *wire.Request) error {
			exclude, fps, err := parseMembershipBody(r.Body)
			if err != nil {
				return wire.As(wire.ErrBadRequest, err)
			}
			if exclude == noExclude {
				exclude = ""
			}
			var out []byte
			for _, fp := range fps {
				list := noExclude
				if holders := t.Locate(fp, exclude); len(holders) > 0 {
					list = strings.Join(holders, ",")
				}
				out = fmt.Appendf(out, "%s %s\n", fp, list)
			}
			wire.Respond(w, "text/plain", out)
			return nil
		}},
		wire.Verb{Method: http.MethodPost, Path: "/peer/served", Serve: func(w http.ResponseWriter, r *wire.Request) error {
			var po, ro int
			var pb, rb int64
			if _, err := fmt.Sscanf(strings.TrimSpace(string(r.Body)),
				"peer=%d/%d registry=%d/%d", &po, &pb, &ro, &rb); err != nil {
				return wire.As(wire.ErrBadRequest, fmt.Errorf("peer: served: parse %q: %v", r.Body, err))
			}
			if po < 0 || pb < 0 || ro < 0 || rb < 0 {
				return wire.As(wire.ErrBadRequest, errors.New("peer: served: negative counter"))
			}
			t.ReportServed(po, pb, ro, rb)
			wire.Respond(w, "text/plain; charset=utf-8", []byte("ok\n"))
			return nil
		}},
		telemetry.Verb("/peer/metrics", t),
	)
}

// parseMembershipBody decodes the shared announce/withdraw/locate
// framing: a holder (or requester) id line followed by fingerprint
// lines.
func parseMembershipBody(body []byte) (holder string, fps []hashing.Fingerprint, err error) {
	first, rest, _ := strings.Cut(string(body), "\n")
	holder = strings.TrimSpace(first)
	if err := validateHolderID(holder); err != nil {
		return "", nil, err
	}
	if fps, err = wire.ParseList([]byte(rest)); err != nil {
		return "", nil, fmt.Errorf("peer: %w", err)
	}
	return holder, fps, nil
}

// validateHolderID rejects ids the wire framing cannot carry: an id is
// one whitespace-free token, without commas because locate responses
// join holders with them.
func validateHolderID(id string) error {
	if id == "" {
		return errors.New("peer: empty holder id")
	}
	if strings.ContainsAny(id, " \t\n\r,") {
		return fmt.Errorf("peer: holder id %q contains whitespace or comma", id)
	}
	return nil
}

// TrackerClient talks to a remote tracker over HTTP. It satisfies
// Locator, so a store's exchange can run against an out-of-process
// tracker unchanged.
type TrackerClient struct {
	w *wire.Client
}

var _ Locator = (*TrackerClient)(nil)

// NewTrackerClient returns a client for the tracker at baseURL.
func NewTrackerClient(baseURL string, hc *http.Client) *TrackerClient {
	return &TrackerClient{w: wire.NewClient("peer client", baseURL, hc, nil)}
}

// post sends one membership-framed body: an id line, then fps.
func (c *TrackerClient) post(path, id string, fps []hashing.Fingerprint) (*wire.Reply, error) {
	return c.w.Do(http.MethodPost, path, wire.AppendList([]byte(id+"\n"), fps), "Content-Type", "text/plain")
}

// Announce mirrors Tracker.Announce over HTTP.
func (c *TrackerClient) Announce(holder string, fps ...hashing.Fingerprint) error {
	_, err := c.post("/peer/announce", holder, fps)
	return err
}

// Withdraw mirrors Tracker.Withdraw over HTTP.
func (c *TrackerClient) Withdraw(holder string, fps ...hashing.Fingerprint) error {
	_, err := c.post("/peer/withdraw", holder, fps)
	return err
}

// Locate implements Locator. Transport or protocol errors yield no
// holders: the caller falls back to the registry, which is always
// correct, just more expensive.
func (c *TrackerClient) Locate(fp hashing.Fingerprint, exclude string) []string {
	all, err := c.LocateBatch([]hashing.Fingerprint{fp}, exclude)
	if err != nil || len(all) != 1 {
		return nil
	}
	return all[0]
}

// LocateBatch asks for the holders of several fingerprints in one round
// trip, returned in request order.
func (c *TrackerClient) LocateBatch(fps []hashing.Fingerprint, exclude string) ([][]string, error) {
	if exclude == "" {
		exclude = noExclude
	}
	r, err := c.post("/peer/locate", exclude, fps)
	if err != nil {
		return nil, err
	}
	holders, got, err := parseLocateResponse(r.Body)
	if err == nil {
		err = wire.CheckEcho(got, fps)
	}
	if err != nil {
		return nil, fmt.Errorf("peer client: locate: %w", err)
	}
	return holders, nil
}

// ReportServed mirrors Tracker.ReportServed over HTTP.
func (c *TrackerClient) ReportServed(peerObjects int, peerBytes int64, registryObjects int, registryBytes int64) error {
	body := fmt.Sprintf("peer=%d/%d registry=%d/%d\n", peerObjects, peerBytes, registryObjects, registryBytes)
	_, err := c.w.Do(http.MethodPost, "/peer/served", []byte(body), "Content-Type", "text/plain")
	return err
}

// parseLocateResponse decodes the /peer/locate framing: one
// "<fingerprint> <h1,h2,...|->" line per requested fingerprint.
func parseLocateResponse(body []byte) (holders [][]string, fps []hashing.Fingerprint, err error) {
	for _, line := range wire.Lines(body) {
		fp, rest, err := wire.Record(line, 1)
		if err != nil {
			return nil, nil, err
		}
		var hs []string
		if rest[0] != noExclude {
			hs = strings.Split(rest[0], ",")
			for _, h := range hs {
				if err := validateHolderID(h); err != nil {
					return nil, nil, fmt.Errorf("locate line %q: %w", line, err)
				}
			}
		}
		fps, holders = append(fps, fp), append(holders, hs)
	}
	return holders, fps, nil
}
