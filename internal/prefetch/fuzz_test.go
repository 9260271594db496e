package prefetch

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/wire"
)

// FuzzDecodeProfile: the startup-profile decoder must never panic on
// arbitrary bytes, and everything it accepts must satisfy the profile
// invariants and survive a re-encode/re-decode round trip unchanged —
// what the store relies on when it persists a replayed profile back.
func FuzzDecodeProfile(f *testing.F) {
	valid := &Profile{ImageRef: "gear/nginx:v01", Entries: []Entry{
		{Fingerprint: hashing.FingerprintBytes([]byte("a")), Size: 10},
		{Fingerprint: hashing.FingerprintBytes([]byte("b")), Size: 0},
		{Fingerprint: hashing.Fingerprint("d41d8cd98f00b204e9800998ecf8427e-c2"), Size: 7},
	}}
	if data, err := Encode(valid); err == nil {
		f.Add(data)
		f.Add(data[:len(data)-1])            // truncated
		f.Add(append(data, 0))               // trailing byte
		skew := append([]byte(nil), data...) // version skew
		skew[3] = '9'
		f.Add(skew)
	}
	if data, err := Encode(&Profile{ImageRef: ""}); err == nil {
		f.Add(data)
	}
	f.Add([]byte("GPF1"))
	f.Add([]byte("GPF"))
	f.Add([]byte{})
	f.Add([]byte("GPF1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // huge varint count

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted profile fails validation: %v", err)
		}
		re, err := Encode(p)
		if err != nil {
			t.Fatalf("accepted profile does not re-encode: %v", err)
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded profile does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatal("decode(encode(p)) != p")
		}
	})
}

// FuzzLibraryHandler drives method × path × body at a handler over a
// library holding one profile and one stored undecodable. The handler
// must not panic and must answer only with a status its table or wire
// itself produces — 500 only for the undecodable profile, whose verdict
// has no row — and every 200 reply must parse as its verb's framing.
func FuzzLibraryHandler(f *testing.F) {
	const good, corrupt = "gear/nginx:v01", "gear/redis:v01"
	methods := []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodHead, "BREW"}

	f.Add(uint8(0), "/profile/list", []byte(nil))
	f.Add(uint8(0), "/profile/metrics", []byte(nil))
	f.Add(uint8(0), "/profile/dump/"+good, []byte(nil))
	f.Add(uint8(0), "/profile/dump/"+corrupt, []byte(nil))
	f.Add(uint8(0), "/profile/dump/absent:v9", []byte(nil))
	f.Add(uint8(0), "/profile/dump/", []byte(nil))
	f.Add(uint8(0), "/profile/dump/with space", []byte(nil))
	f.Add(uint8(1), "/profile/delete/"+good, []byte("x"))
	f.Add(uint8(1), "/profile/delete/absent:v9", []byte(nil))
	f.Add(uint8(1), "/profile/list", []byte("x"))
	f.Add(uint8(2), "/profile/delete/"+good, []byte(nil))
	f.Add(uint8(4), "/profile/", []byte(nil))

	allowed := map[int]bool{
		http.StatusOK: true,
		// wire's own rows: unreadable request, no route, wrong method,
		// body over the limit.
		http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusMethodNotAllowed: true, http.StatusRequestEntityTooLarge: true,
	}
	for _, row := range statuses {
		allowed[row.Code] = true
	}

	f.Fuzz(func(t *testing.T, m uint8, path string, body []byte) {
		lib := NewLibrary()
		if err := lib.Put(&Profile{ImageRef: good, Entries: []Entry{
			{Fingerprint: hashing.FingerprintBytes([]byte("a")), Size: 10},
			{Fingerprint: hashing.FingerprintBytes([]byte("b")), Size: 0},
		}}); err != nil {
			t.Fatal(err)
		}
		lib.PutRaw(corrupt, []byte("GPF1\xff"))
		method := methods[int(m)%len(methods)]
		req := httptest.NewRequest(http.MethodGet, "/", bytes.NewReader(body))
		req.Method, req.URL.Path = method, path
		rec := httptest.NewRecorder()
		NewLibraryHandler(lib).ServeHTTP(rec, req)

		if rec.Code == http.StatusInternalServerError && method == http.MethodGet && path == "/profile/dump/"+corrupt {
			return
		}
		if !allowed[rec.Code] {
			t.Fatalf("%s %q: status %d is in no table: %s", method, path, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		reply := rec.Body.Bytes()
		switch {
		case path == "/profile/list":
			for _, line := range wire.Lines(reply) {
				if _, err := parseListLine(line); err != nil {
					t.Fatalf("list line does not parse: %v", err)
				}
			}
		case path == "/profile/metrics":
			if _, err := telemetry.DecodeSnapshot(reply); err != nil {
				t.Fatalf("metrics reply does not decode: %v", err)
			}
		case strings.HasPrefix(path, "/profile/dump/"):
			p, err := parseDump(wire.Lines(reply))
			if err != nil || p.ImageRef != strings.TrimPrefix(path, "/profile/dump/") {
				t.Fatalf("dump of %q: profile %+v, %v", path, p, err)
			}
		}
	})
}
