package registry

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
)

// fuzzMethods are the methods FuzzRegistryHandler picks from: every
// method the verb table answers, and two it answers nowhere.
var fuzzMethods = []string{
	http.MethodGet, http.MethodHead, http.MethodPut, http.MethodPost, http.MethodDelete, "BREW",
}

// FuzzRegistryHandler drives method × path × body at a handler over a
// registry holding one pushed image. The handler must not panic, must
// answer only with a status its table or wire itself produces, must
// serve a blob whose digest is the one its URL names, and must serve a
// manifest that decodes.
func FuzzRegistryHandler(f *testing.F) {
	img := testImage(f, "gear/nginx", "v01", "nginx-bin")
	manifest, err := imagefmt.EncodeManifest(img.Manifest)
	if err != nil {
		f.Fatal(err)
	}
	layer := string(img.Manifest.Layers[0])
	other := img.Manifest
	other.Tag = "v02"
	retagged, err := imagefmt.EncodeManifest(other)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint8(0), "/v2/manifests/", []byte(nil))
	f.Add(uint8(0), "/v2/manifests/gear/nginx/v01", []byte(nil))
	f.Add(uint8(0), "/v2/manifests/gear/nginx/", []byte(nil))
	f.Add(uint8(0), "/v2/manifests/nginx", []byte(nil))
	f.Add(uint8(2), "/v2/manifests/gear/nginx/v02", retagged)
	f.Add(uint8(2), "/v2/manifests/gear/nginx/v03", retagged) // reference mismatch
	f.Add(uint8(2), "/v2/manifests/gear/nginx/v01", []byte("{"))
	f.Add(uint8(0), "/v2/blobs/"+layer, []byte(nil))
	f.Add(uint8(1), "/v2/blobs/"+layer, []byte(nil))
	f.Add(uint8(0), "/v2/blobs/"+string(hashing.DigestBytes([]byte("absent"))), []byte(nil))
	f.Add(uint8(2), "/v2/blobs/"+string(hashing.DigestBytes([]byte("new"))), []byte("new"))
	f.Add(uint8(2), "/v2/blobs/"+string(hashing.DigestBytes([]byte("new"))), []byte("old"))
	f.Add(uint8(0), "/v2/blobs/sha256:bogus", []byte(nil))
	f.Add(uint8(3), "/v2/blobs/"+layer, manifest)
	f.Add(uint8(4), "/v2/manifests/gear/nginx/v01", []byte(nil))
	f.Add(uint8(5), "/v2/", []byte("x"))

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusCreated: true,
		// wire's own rows: unreadable request, no route, wrong method,
		// body over the limit.
		http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusMethodNotAllowed: true, http.StatusRequestEntityTooLarge: true,
	}
	for _, row := range statuses {
		allowed[row.Code] = true
	}

	f.Fuzz(func(t *testing.T, m uint8, path string, body []byte) {
		reg := New()
		if _, err := Push(reg, img); err != nil {
			t.Fatal(err)
		}
		method := fuzzMethods[int(m)%len(fuzzMethods)]
		req := httptest.NewRequest(http.MethodGet, "/", bytes.NewReader(body))
		req.Method, req.URL.Path = method, path
		rec := httptest.NewRecorder()
		NewHandler(reg).ServeHTTP(rec, req)

		if !allowed[rec.Code] {
			t.Fatalf("%s %q: status %d is in no table: %s", method, path, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK || method != http.MethodGet {
			return
		}
		if d, ok := strings.CutPrefix(path, "/v2/blobs/"); ok {
			if got := hashing.DigestBytes(rec.Body.Bytes()); string(got) != d {
				t.Fatalf("GET %q served a blob of digest %s", path, got)
			}
		}
		if ref, ok := strings.CutPrefix(path, "/v2/manifests/"); ok && ref != "" {
			if _, err := imagefmt.DecodeManifest(rec.Body.Bytes()); err != nil {
				t.Fatalf("GET %q served a manifest that does not decode: %v", path, err)
			}
		}
	})
}
