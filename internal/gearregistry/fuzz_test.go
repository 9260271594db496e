package gearregistry

import (
	"bytes"
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

// FuzzParseRangeResponse: the client-side range frame parser must never
// panic and must only accept frames whose header and payload agree.
func FuzzParseRangeResponse(f *testing.F) {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := parseRangeResponse(data)
		if err != nil {
			return
		}
		if err := frame.fp.Validate(); err != nil {
			t.Fatalf("accepted invalid fingerprint %q", frame.fp)
		}
		if frame.off < 0 || frame.n <= 0 || frame.off+frame.n > frame.total {
			t.Fatalf("accepted inconsistent range [%d,+%d) of %d", frame.off, frame.n, frame.total)
		}
		if int64(len(frame.payload)) != frame.n {
			t.Fatalf("payload %d bytes for declared %d", len(frame.payload), frame.n)
		}
	})
}

// FuzzRangeHandler: the /gear/range handler must never panic on
// arbitrary paths, and every 200 response must parse with the client
// framing and carry the true object slice.
func FuzzRangeHandler(f *testing.F) {
	reg := New(Options{Compress: true})
	payload := []byte("the quick brown fox jumps over the lazy dog")
	known := hashing.FingerprintBytes(payload)
	if err := reg.Upload(known, payload); err != nil {
		f.Fatal(err)
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
	f.Fuzz(func(t *testing.T, tail string) {
		req := httptest.NewRequest(http.MethodGet, "/gear/range/"+tail, nil)
		rec := httptest.NewRecorder()
		NewHandler(reg).ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			frame, err := parseRangeResponse(rec.Body.Bytes())
			if err != nil {
				t.Fatalf("200 response does not parse: %v", err)
			}
			want, _, err := reg.DownloadRange(frame.fp, frame.off, frame.n)
			if err != nil {
				t.Fatalf("served a range the registry rejects: %v", err)
			}
			if !bytes.Equal(frame.payload, want) {
				t.Fatalf("served wrong bytes for %s [%d,+%d)", frame.fp, frame.off, frame.n)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestedRangeNotSatisfiable:
		default:
			t.Fatalf("unexpected status %d", rec.Code)
		}
	})
}
