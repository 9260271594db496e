package gearregistry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/wire"
)

// FuzzBatchHandler: the /gear/batch handler must never panic on
// arbitrary fingerprint lists, and every 200 response must parse with
// the client framing and contain only objects the registry holds.
func FuzzBatchHandler(f *testing.F) {
	reg := New(Options{})
	known := hashing.FingerprintBytes([]byte("known object"))
	if err := reg.Upload(known, []byte("known object")); err != nil {
		f.Fatal(err)
	}
	compressed := New(Options{Compress: true})
	if err := compressed.Upload(known, []byte("known object")); err != nil {
		f.Fatal(err)
	}

	f.Add("")
	f.Add("\n\n\n")
	f.Add(string(known) + "\n")
	f.Add(string(known) + "\n" + string(known) + "\n") // duplicates
	f.Add("d41d8cd98f00b204e9800998ecf8427e\n")        // unknown but well-formed
	f.Add("zzzz\n")                                    // malformed
	f.Add(string(known) + "\nnot a fingerprint\n")
	f.Add("d41d8cd98f00b204e9800998ecf8427e-c2\n") // collision id form
	f.Add(string(known) + " 5 raw\nhello")         // framing-shaped input

	f.Fuzz(func(t *testing.T, body string) {
		for _, reg := range []*Registry{reg, compressed} {
			req := httptest.NewRequest(http.MethodPost, "/gear/batch", bytes.NewReader([]byte(body)))
			rec := httptest.NewRecorder()
			NewHandler(reg).ServeHTTP(rec, req)

			switch rec.Code {
			case http.StatusOK:
				objects, err := wire.ParseFrames(rec.Body.Bytes())
				if err != nil {
					t.Fatalf("200 response does not parse: %v", err)
				}
				for _, o := range objects {
					if err := o.FP.Validate(); err != nil {
						t.Fatalf("served invalid fingerprint %q", o.FP)
					}
					present, err := reg.Query(o.FP)
					if err != nil || !present {
						t.Fatalf("served object %s the registry does not hold", o.FP)
					}
				}
			case http.StatusBadRequest, http.StatusNotFound:
				// Rejected lists are fine; the handler just must not panic
				// or serve partial garbage.
			default:
				t.Fatalf("unexpected status %d", rec.Code)
			}
		}
	})
}

// FuzzQueryBatchHandler: the /gear/querybatch handler must never panic
// on arbitrary fingerprint lists, and every 200 response must parse with
// the client framing, echo the request order, and agree with per-object
// Query verdicts.
func FuzzQueryBatchHandler(f *testing.F) {
	reg := New(Options{})
	known := hashing.FingerprintBytes([]byte("known object"))
	if err := reg.Upload(known, []byte("known object")); err != nil {
		f.Fatal(err)
	}

	f.Add("")
	f.Add("\n\n\n")
	f.Add(string(known) + "\n")
	f.Add(string(known) + "\n" + string(known) + "\n") // duplicates
	f.Add("d41d8cd98f00b204e9800998ecf8427e\n")        // unknown but well-formed
	f.Add("zzzz\n")                                    // malformed
	f.Add(string(known) + "\nnot a fingerprint\n")
	f.Add("d41d8cd98f00b204e9800998ecf8427e-c2\n") // collision id form
	f.Add(string(known) + " present\n")            // response-shaped input

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/gear/querybatch", bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		NewHandler(reg).ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK:
			fps, present, err := wire.ParseVerdicts(rec.Body.Bytes())
			if err != nil {
				t.Fatalf("200 response does not parse: %v", err)
			}
			if len(present) != len(fps) {
				t.Fatalf("%d verdicts for %d fingerprints", len(present), len(fps))
			}
			for i, fp := range fps {
				got, err := reg.Query(fp)
				if err != nil {
					t.Fatalf("served invalid fingerprint %q: %v", fp, err)
				}
				if got != present[i] {
					t.Fatalf("verdict for %s = %v, registry says %v", fp, present[i], got)
				}
			}
		case http.StatusBadRequest:
			// Malformed lists are rejected whole; the handler just must
			// not panic or answer a partial batch.
		default:
			t.Fatalf("unexpected status %d", rec.Code)
		}
	})
}

// canned is a transport that answers every request 200 with one body.
type canned struct {
	header http.Header
	body   []byte
}

func (c canned) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: c.header, Request: req,
		ContentLength: int64(len(c.body)), Body: io.NopCloser(bytes.NewReader(c.body))}, nil
}

// cannedClient is a Client whose server says body whatever it is asked.
func cannedClient(header http.Header, body []byte) *Client {
	return NewClient("http://canned", &http.Client{Transport: canned{header: header, body: body}})
}

// splitRangeReply decodes a whole range reply held in memory.
func splitRangeReply(body []byte) (fp hashing.Fingerprint, off, n int64, payload []byte, err error) {
	header, payload, ok := bytes.Cut(body, []byte("\n"))
	if !ok {
		return "", 0, 0, nil, fmt.Errorf("truncated range header %q", body)
	}
	fp, off, n, err = parseRangeHeader(string(header))
	return fp, off, n, payload, err
}

// FuzzRangeReply: the client reading a range reply must never panic and
// must only accept a reply whose header echoes the request and whose
// payload is exactly the bytes it asked for.
func FuzzRangeReply(f *testing.F) {
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 0 5 100\nhello"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 95 5 100\nhello"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 99 5 100\nhello")) // past the end
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 0 5 100\nhi"))     // short body
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 0 5 100\nhello world"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e -1 5 100\nhello"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 0 0 100\n"))
	f.Add([]byte("zzzz 0 5 100\nhello"))
	f.Add([]byte("no header"))
	f.Add([]byte{})
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 9223372036854775807 1 100\nh")) // off+n overflows
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e 2 9223372036854775807 100\nhello"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Ask for what the reply says it is, when it says anything: an
		// arbitrary reply to a fixed request is refused on the echo and
		// the payload check is never reached.
		fp, off, n := hashing.Fingerprint("d41d8cd98f00b204e9800998ecf8427e"), int64(0), int64(5)
		if gotFP, gotOff, gotN, _, err := splitRangeReply(data); err == nil {
			fp, off, n = gotFP, gotOff, gotN
		}
		payload, wireBytes, err := cannedClient(nil, data).DownloadRange(fp, off, n)
		if err != nil {
			if !errors.Is(err, wire.ErrBadReply) {
				t.Fatalf("refused with an untyped error: %v", err)
			}
			return
		}
		gotFP, gotOff, gotN, want, err := splitRangeReply(data)
		if err != nil || gotFP != fp || gotOff != off || gotN != n {
			t.Fatalf("accepted a reply that does not echo %s [%d,+%d): %v", fp, off, n, err)
		}
		if int64(len(payload)) != n || !bytes.Equal(payload, want) {
			t.Fatalf("payload %d bytes for declared %d", len(payload), n)
		}
		if wireBytes != int64(len(data)) {
			t.Fatalf("wire bytes = %d, body is %d", wireBytes, len(data))
		}
	})
}

// FuzzRangeHandler: the /gear/range handler must never panic on
// arbitrary paths, and every 200 response must parse with the client
// framing and carry the true object slice.
func FuzzRangeHandler(f *testing.F) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	known := hashing.FingerprintBytes(payload)
	// Both stored forms: a raw pool slices the range, a compressed one
	// inflates it.
	regs := []*Registry{New(Options{}), New(Options{Compress: true})}
	for _, reg := range regs {
		if err := reg.Upload(known, payload); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(string(known) + "/0/5")
	f.Add(string(known) + "/40/3")
	f.Add(string(known) + "/40/99")
	f.Add(string(known) + "/-1/5")
	f.Add(string(known) + "/0/0")
	f.Add(string(known))
	f.Add("zzzz/0/5")
	f.Add("../../etc/passwd")
	f.Add("")
	f.Add(string(known) + "/9223372036854775807/1") // off+n overflows
	f.Add(string(known) + "/2/9223372036854775807")
	f.Fuzz(func(t *testing.T, tail string) {
		for _, reg := range regs {
			// The tail is set as the path, not parsed as a request target:
			// one with a space or a control byte is not a request line, and
			// httptest.NewRequest panics on it before the handler is reached.
			req := httptest.NewRequest(http.MethodGet, "/gear/range/", nil)
			req.URL.Path += tail
			rec := httptest.NewRecorder()
			NewHandler(reg).ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				fp, off, n, payload, err := splitRangeReply(rec.Body.Bytes())
				if err != nil {
					t.Fatalf("200 response does not parse: %v", err)
				}
				want, _, err := reg.DownloadRange(fp, off, n)
				if err != nil {
					t.Fatalf("served a range the registry rejects: %v", err)
				}
				if !bytes.Equal(payload, want) {
					t.Fatalf("served wrong bytes for %s [%d,+%d)", fp, off, n)
				}
			case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestedRangeNotSatisfiable:
			default:
				t.Fatalf("unexpected status %d", rec.Code)
			}
		}
	})
}
