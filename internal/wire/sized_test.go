package wire_test

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/peer"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/shardreg"
	"github.com/gear-image/gear/internal/wire"
)

// Every reply that carries an object declares its length and is not
// chunked, however big the object: net/http sizes a small reply on its
// own (which is all the goldens' fixtures ever make it do), so this one
// is asked with an object far over that 2 KiB.
func TestObjectRepliesAreSized(t *testing.T) {
	big := make([]byte, 64<<10)
	rand.New(rand.NewSource(14)).Read(big[:len(big)/2])
	fp := hashing.FingerprintBytes(big)
	list := []byte(string(fp) + "\n")

	gear := func(compress bool) http.Handler {
		reg := gearregistry.New(gearregistry.Options{Compress: compress})
		if err := reg.Upload(fp, big); err != nil {
			t.Fatal(err)
		}
		return gearregistry.NewHandler(reg)
	}
	l1, err := cache.New(0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Put(fp, big); err != nil {
		t.Fatal(err)
	}
	peerSrv := gearregistry.NewPoolHandler(peer.NewServer("node0", l1, peer.ServerOptions{Compress: true}))
	docker := registry.New()
	digest := hashing.DigestBytes(big)
	if err := docker.PutBlob(digest, big); err != nil {
		t.Fatal(err)
	}
	layers := make([]hashing.Digest, 64) // a manifest over 2 KiB
	sizes := make([]int64, len(layers))
	for i := range layers {
		layers[i], sizes[i] = digest, int64(len(big))
	}
	if err := docker.PutManifest(&imagefmt.Manifest{Name: "gear/big", Tag: "v1", Layers: layers, LayerSizes: sizes}); err != nil {
		t.Fatal(err)
	}
	cluster, err := shardreg.New(shardreg.Options{Shards: []string{"shard00"}, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Upload(fp, big); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name         string
		h            http.Handler
		method, path string
		body         []byte
		sized        bool // carries SizeHeader
	}{
		{"gear download", gear(true), "GET", "/gear/download/" + string(fp), nil, true},
		{"gear download, raw pool", gear(false), "GET", "/gear/download/" + string(fp), nil, true},
		{"gear batch", gear(true), "POST", "/gear/batch", list, true},
		{"gear range", gear(true), "GET", "/gear/range/" + string(fp) + "/1000/40000", nil, false},
		{"peer download", peerSrv, "GET", "/gear/download/" + string(fp), nil, true},
		{"peer batch", peerSrv, "POST", "/gear/batch", list, true},
		{"docker blob", registry.NewHandler(docker), "GET", "/v2/blobs/" + string(digest), nil, false},
		{"docker manifest", registry.NewHandler(docker), "GET", "/v2/manifests/gear/big/v1", nil, false},
		{"shard download", shardreg.NewHandler(cluster), "POST", "/shard", routed("shard00", shardreg.VerbDownload, fp), true},
	} {
		srv := httptest.NewServer(c.h)
		req, err := http.NewRequest(c.method, srv.URL+c.path, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		srv.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, %v", c.name, resp.StatusCode, err)
			continue
		}
		if len(body) < 4<<10 {
			t.Errorf("%s: a %d-byte reply proves nothing", c.name, len(body))
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Transfer-Encoding %v, Content-Length %d for a %d-byte body: want it sized, not chunked",
				c.name, resp.TransferEncoding, resp.ContentLength, len(body))
		}
		if got := resp.Header.Get(wire.SizeHeader); c.sized && got != strconv.Itoa(len(big)) {
			t.Errorf("%s: %s = %q, want %d", c.name, wire.SizeHeader, got, len(big))
		}
	}
}
