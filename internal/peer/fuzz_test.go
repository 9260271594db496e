package peer

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
)

// FuzzTrackerHTTP: the announce/withdraw/locate handlers must never
// panic on arbitrary bodies, every accepted announce must leave the
// tracker consistent, and every 200 locate response must parse with the
// client framing and name only holders the tracker actually tracks.
func FuzzTrackerHTTP(f *testing.F) {
	known := hashing.FingerprintBytes([]byte("known object"))

	f.Add("node0\n" + string(known) + "\n")
	f.Add("node0\n" + string(known) + "\n" + string(known) + "\n") // duplicates
	f.Add("-\n" + string(known) + "\n")                            // locate's no-exclude marker
	f.Add("node0\n")                                               // no fingerprints
	f.Add("\n" + string(known) + "\n")                             // empty holder
	f.Add("two words\n" + string(known) + "\n")                    // holder with space
	f.Add("with,comma\n" + string(known) + "\n")                   // holder with comma
	f.Add("node0\nzzzz\n")                                         // malformed fingerprint
	f.Add("node0\nd41d8cd98f00b204e9800998ecf8427e-c2\n")          // collision id form
	f.Add("")
	f.Add("\n\n\n")
	f.Add(string(known) + " node0,node1\n") // response-shaped input

	f.Fuzz(func(t *testing.T, body string) {
		tr := NewTracker()
		if err := tr.Announce("seed", known); err != nil {
			t.Fatal(err)
		}
		h := NewTrackerHandler(tr)

		for _, path := range []string{"/peer/announce", "/peer/withdraw", "/peer/locate"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)

			switch rec.Code {
			case http.StatusOK:
				if path != "/peer/locate" {
					continue
				}
				holders, fps, err := parseLocateResponse(rec.Body.Bytes())
				if err != nil {
					t.Fatalf("200 locate response does not parse: %v", err)
				}
				if len(holders) != len(fps) {
					t.Fatalf("%d holder lists for %d fingerprints", len(holders), len(fps))
				}
				for i, fp := range fps {
					if err := fp.Validate(); err != nil {
						t.Fatalf("located invalid fingerprint %q", fp)
					}
					for _, holder := range holders[i] {
						if err := validateHolderID(holder); err != nil {
							t.Fatalf("located unframeable holder %q: %v", holder, err)
						}
					}
				}
			case http.StatusBadRequest:
				// Rejected bodies are fine; the handler just must not panic
				// or apply a partial update.
			default:
				t.Fatalf("%s: unexpected status %d", path, rec.Code)
			}
		}

		// Whatever the fuzzer announced, the tracker's invariants hold:
		// its counters are consistent and the seeded file stays located.
		s := tr.Snapshot()
		if s.Gauge("tracker.fingerprints") < 0 || s.Gauge("tracker.holders") < 0 ||
			s.Counter("tracker.announces") < s.Counter("tracker.withdraws")-1 {
			t.Fatalf("inconsistent counters after fuzzed traffic: %+v", s)
		}
	})
}

// FuzzParseLocateResponse: the client-side locate parser must never
// panic and must only accept lines whose fingerprints and holder ids
// survive re-framing.
func FuzzParseLocateResponse(f *testing.F) {
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e node0,node1\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e -\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e-c2 node0\n"))
	f.Add([]byte("zzzz node0\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e node0 extra\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e ,\n"))
	f.Add([]byte("no holders"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		holders, fps, err := parseLocateResponse(data)
		if err != nil {
			return
		}
		if len(holders) != len(fps) {
			t.Fatalf("%d holder lists for %d fingerprints", len(holders), len(fps))
		}
		for i, fp := range fps {
			if err := fp.Validate(); err != nil {
				t.Fatalf("accepted invalid fingerprint %q", fp)
			}
			for _, holder := range holders[i] {
				if err := validateHolderID(holder); err != nil {
					t.Fatalf("accepted unframeable holder %q: %v", holder, err)
				}
			}
		}
	})
}
