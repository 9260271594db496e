package registry

import (
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

func testImage(t testing.TB, name, tag, payload string) *imagefmt.Image {
	t.Helper()
	base := vfs.New()
	if err := base.MkdirAll("/bin", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile("/bin/sh", []byte("#!shared-base"), 0o755); err != nil {
		t.Fatal(err)
	}
	app := vfs.New()
	if err := app.WriteFile("/app", []byte(payload), 0o755); err != nil {
		t.Fatal(err)
	}
	b := imagefmt.NewBuilder(name, tag)
	if err := b.AddDiffLayer(base); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDiffLayer(app); err != nil {
		t.Fatal(err)
	}
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestPushPullRoundTrip(t *testing.T) {
	r := New()
	img := testImage(t, "nginx", "1.17", "nginx-bin")
	uploaded, err := Push(r, img)
	if err != nil {
		t.Fatal(err)
	}
	if uploaded != img.Manifest.TotalSize() {
		t.Errorf("uploaded = %d, want %d", uploaded, img.Manifest.TotalSize())
	}
	got, err := Pull(r, "nginx", "1.17")
	if err != nil {
		t.Fatal(err)
	}
	root, err := got.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	data, err := root.ReadFile("/app")
	if err != nil || string(data) != "nginx-bin" {
		t.Errorf("pulled app = %q, %v", data, err)
	}
}

func TestPullMissing(t *testing.T) {
	r := New()
	if _, err := Pull(r, "ghost", "v1"); !errors.Is(err, ErrManifestNotFound) {
		t.Errorf("err = %v, want ErrManifestNotFound", err)
	}
}

func TestLayerLevelDedup(t *testing.T) {
	// Two images sharing the base layer: the second push uploads only its
	// unique top layer (§II-B layer-level dedup).
	r := New()
	a := testImage(t, "nginx", "1.17", "nginx-bin")
	b := testImage(t, "httpd", "2.4", "httpd-bin")
	if _, err := Push(r, a); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	up, err := Push(r, b)
	if err != nil {
		t.Fatal(err)
	}
	if up != b.Layers[1].Size {
		t.Errorf("second push uploaded %d, want only top layer %d", up, b.Layers[1].Size)
	}
	after := r.Stats()
	if after.Blobs != before.Blobs+1 {
		t.Errorf("blobs %d -> %d, want +1 (base shared)", before.Blobs, after.Blobs)
	}
	if after.Manifests != 2 {
		t.Errorf("manifests = %d, want 2", after.Manifests)
	}
}

func TestRepushIsIdempotent(t *testing.T) {
	r := New()
	img := testImage(t, "redis", "6", "redis-bin")
	if _, err := Push(r, img); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	up, err := Push(r, img)
	if err != nil {
		t.Fatal(err)
	}
	if up != 0 {
		t.Errorf("re-push uploaded %d bytes, want 0", up)
	}
	if got := r.Stats(); got.BlobBytes != before.BlobBytes || got.Blobs != before.Blobs {
		t.Errorf("storage changed on re-push: %+v -> %+v", before, got)
	}
}

func TestPutBlobVerifiesDigest(t *testing.T) {
	r := New()
	data := []byte("blob")
	if err := r.PutBlob(hashing.DigestBytes([]byte("other")), data); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("err = %v, want ErrDigestMismatch", err)
	}
	if err := r.PutBlob("sha256:short", data); !errors.Is(err, hashing.ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
	if err := r.PutBlob(hashing.DigestBytes(data), data); err != nil {
		t.Errorf("valid put failed: %v", err)
	}
}

func TestPutBlobDedupHit(t *testing.T) {
	r := New()
	data := []byte("same blob")
	d := hashing.DigestBytes(data)
	for i := 0; i < 3; i++ {
		if err := r.PutBlob(d, data); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Stats()
	if s.Blobs != 1 || s.DedupHits != 2 {
		t.Errorf("stats = %+v, want 1 blob / 2 dedup hits", s)
	}
}

func TestListManifests(t *testing.T) {
	r := New()
	for _, ref := range []struct{ n, tag, p string }{
		{"zz", "1", "a"}, {"aa", "2", "b"}, {"mm", "3", "c"},
	} {
		if _, err := Push(r, testImage(t, ref.n, ref.tag, ref.p)); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := r.ListManifests()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aa:2", "mm:3", "zz:1"}
	if len(refs) != 3 {
		t.Fatalf("refs = %v", refs)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("refs[%d] = %q, want %q", i, refs[i], want[i])
		}
	}
}

func TestStatsTotalBytes(t *testing.T) {
	r := New()
	if _, err := Push(r, testImage(t, "a", "b", "p")); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.TotalBytes() != s.BlobBytes+s.ManifestBytes {
		t.Error("TotalBytes mismatch")
	}
	if s.BlobBytes <= 0 || s.ManifestBytes <= 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConcurrentPushes(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			img := testImage(t, "app", "v", "same payload") // identical images
			_, errs[w] = Push(r, img)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := r.Stats()
	if s.Blobs != 2 || s.Manifests != 1 {
		t.Errorf("stats = %+v, want 2 blobs / 1 manifest", s)
	}
}

// --- HTTP layer ---

func newHTTPStore(t *testing.T) (*Registry, Store) {
	t.Helper()
	reg := New()
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	return reg, NewClient(srv.URL, srv.Client())
}

func TestHTTPPushPull(t *testing.T) {
	reg, client := newHTTPStore(t)
	img := testImage(t, "nginx", "1.17", "payload")
	if _, err := Push(client, img); err != nil {
		t.Fatal(err)
	}
	if s := reg.Stats(); s.Blobs != 2 || s.Manifests != 1 {
		t.Errorf("server stats = %+v", s)
	}
	got, err := Pull(client, "nginx", "1.17")
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Reference() != "nginx:1.17" || len(got.Layers) != 2 {
		t.Errorf("pulled %s with %d layers", got.Manifest.Reference(), len(got.Layers))
	}
}

func TestHTTPMissing(t *testing.T) {
	_, client := newHTTPStore(t)
	if _, err := client.GetManifest("ghost", "v1"); !errors.Is(err, ErrManifestNotFound) {
		t.Errorf("manifest err = %v", err)
	}
	d := hashing.DigestBytes([]byte("nope"))
	if _, err := client.GetBlob(d); !errors.Is(err, ErrBlobNotFound) {
		t.Errorf("blob err = %v", err)
	}
	ok, err := client.HasBlob(d)
	if err != nil || ok {
		t.Errorf("HasBlob = %v, %v", ok, err)
	}
}

func TestHTTPHasBlob(t *testing.T) {
	reg, client := newHTTPStore(t)
	data := []byte("blob data")
	d := hashing.DigestBytes(data)
	if err := reg.PutBlob(d, data); err != nil {
		t.Fatal(err)
	}
	ok, err := client.HasBlob(d)
	if err != nil || !ok {
		t.Errorf("HasBlob = %v, %v; want true", ok, err)
	}
	got, err := client.GetBlob(d)
	if err != nil || string(got) != string(data) {
		t.Errorf("GetBlob = %q, %v", got, err)
	}
}

func TestHTTPListManifests(t *testing.T) {
	_, client := newHTTPStore(t)
	refs, err := client.ListManifests()
	if err != nil || refs != nil {
		t.Errorf("empty list = %v, %v", refs, err)
	}
	if _, err := Push(client, testImage(t, "a", "1", "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := Push(client, testImage(t, "b", "2", "y")); err != nil {
		t.Fatal(err)
	}
	refs, err = client.ListManifests()
	if err != nil || len(refs) != 2 || refs[0] != "a:1" || refs[1] != "b:2" {
		t.Errorf("refs = %v, %v", refs, err)
	}
}

func TestHTTPRejectsBadRequests(t *testing.T) {
	_, client := newHTTPStore(t)
	// Mismatched manifest reference vs URL is rejected server-side; the
	// client always derives the URL from the manifest, so drive the
	// handler directly for the malformed-blob case instead.
	if err := client.PutBlob("sha256:bogus", []byte("x")); err == nil {
		t.Error("malformed digest accepted")
	}
	data := []byte("x")
	if err := client.PutBlob(hashing.DigestBytes([]byte("y")), data); err == nil {
		t.Error("digest mismatch accepted")
	}
}
