package imagefmt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// baseTree returns a minimal distro-like root filesystem.
func baseTree(t *testing.T) *vfs.FS {
	t.Helper()
	f := vfs.New()
	for _, d := range []string{"/bin", "/etc", "/lib"} {
		if err := f.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WriteFile("/bin/sh", []byte("#!shell"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/etc/os-release", []byte("NAME=debian"), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

func buildTwoLayerImage(t *testing.T) *Image {
	t.Helper()
	b := NewBuilder("nginx", "1.17")
	b.SetConfig(Config{
		Env:        []string{"PATH=/bin"},
		Entrypoint: []string{"/bin/nginx"},
		Cmd:        []string{"-g", "daemon off;"},
	})
	if err := b.AddDiffLayer(baseTree(t)); err != nil {
		t.Fatal(err)
	}
	app := vfs.New()
	if err := app.MkdirAll("/bin", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := app.WriteFile("/bin/nginx", bytes.Repeat([]byte{1}, 2048), 0o755); err != nil {
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

func TestBuildAndValidate(t *testing.T) {
	img := buildTwoLayerImage(t)
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := img.Manifest.Reference(); got != "nginx:1.17" {
		t.Errorf("Reference = %q", got)
	}
	if len(img.Layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(img.Layers))
	}
	for i, l := range img.Layers {
		if !l.Digest.Valid() {
			t.Errorf("layer %d has an invalid digest", i)
		}
		if l.Size != int64(len(l.Tarball())) {
			t.Errorf("layer %d size mismatch", i)
		}
		if l.UncompressedSize <= 0 {
			t.Errorf("layer %d uncompressed size = %d", i, l.UncompressedSize)
		}
	}
	if img.Manifest.TotalSize() != img.Layers[0].Size+img.Layers[1].Size {
		t.Error("TotalSize mismatch")
	}
}

func TestBuildEmptyFails(t *testing.T) {
	_, err := NewBuilder("x", "y").Build()
	if !errors.Is(err, ErrNoLayers) {
		t.Errorf("err = %v, want ErrNoLayers", err)
	}
}

func TestFlatten(t *testing.T) {
	img := buildTwoLayerImage(t)
	root, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/bin/sh", "/etc/os-release", "/bin/nginx"} {
		if !root.Exists(p) {
			t.Errorf("flattened root missing %s", p)
		}
	}
	data, err := root.ReadFile("/bin/nginx")
	if err != nil || len(data) != 2048 {
		t.Errorf("nginx binary = %d bytes, %v", len(data), err)
	}
}

func TestFlattenWithWhiteout(t *testing.T) {
	b := NewBuilder("img", "v1")
	if err := b.AddDiffLayer(baseTree(t)); err != nil {
		t.Fatal(err)
	}
	del := vfs.New()
	if err := del.MkdirAll("/etc", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := del.WriteFile("/etc/.wh.os-release", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDiffLayer(del); err != nil {
		t.Fatal(err)
	}
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	root, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if root.Exists("/etc/os-release") {
		t.Error("whiteout not applied during flatten")
	}
}

func TestIdenticalLayersShareDigest(t *testing.T) {
	// Layer-level dedup (§II-B) depends on identical diffs producing
	// identical digests.
	l1, err := NewLayerFromDiff(baseTree(t))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewLayerFromDiff(baseTree(t))
	if err != nil {
		t.Fatal(err)
	}
	if l1.Digest != l2.Digest {
		t.Error("identical trees produced different layer digests")
	}
}

func TestNewLayerFromTarball(t *testing.T) {
	l, err := NewLayerFromDiff(baseTree(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewLayerFromTarball(l.Tarball(), l.Digest, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != l.Size || got.UncompressedSize != l.UncompressedSize {
		t.Error("tarball round trip lost metadata")
	}
	// Digest mismatch must be rejected.
	wrong := hashing.DigestBytes([]byte("other"))
	if _, err := NewLayerFromTarball(l.Tarball(), wrong, ""); !errors.Is(err, ErrBadDigest) {
		t.Errorf("err = %v, want ErrBadDigest", err)
	}
}

// A layer pulled with a file to read is the layer pulled without one, and
// its first ReadFile of that file answers without inflating the layer
// again, a second one by inflating it; a file the layer lacks is
// ReadFile's error, not the pull's, and a digest mismatch still fails
// the pull.
func TestNewLayerFromTarballReading(t *testing.T) {
	l, err := NewLayerFromDiff(baseTree(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/etc/os-release", "/etc/missing"} {
		got, err := NewLayerFromTarball(l.Tarball(), l.Digest, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != l.Size || got.UncompressedSize != l.UncompressedSize {
			t.Errorf("%s: a size differs from the layer's", p)
		}
		before := tarstream.InflatedBytes()
		data, err := got.ReadFile(p)
		inflated := tarstream.InflatedBytes() - before
		want, wantErr := l.ReadFile(p)
		if data != want || (err == nil) != (wantErr == nil) {
			t.Errorf("ReadFile(%s) = %q, %v; want %q, %v", p, data, err, want, wantErr)
		}
		if (inflated == 0) != (wantErr == nil) {
			t.Errorf("ReadFile(%s) inflated %d bytes: the file read at the pull must not be read again", p, inflated)
		}
		before = tarstream.InflatedBytes()
		if again, _ := got.ReadFile(p); again != want || tarstream.InflatedBytes() == before {
			t.Errorf("second ReadFile(%s) = %q without inflating; want %q, read anew", p, again, want)
		}
	}
	wrong := hashing.DigestBytes([]byte("other"))
	if _, err := NewLayerFromTarball(l.Tarball(), wrong, "/etc/os-release"); !errors.Is(err, ErrBadDigest) {
		t.Errorf("err = %v, want ErrBadDigest", err)
	}
}

// A decoded manifest is priced by the bytes it was read from, which are
// as many as EncodeManifest writes for it again.
func TestManifestEncodedSize(t *testing.T) {
	img := buildTwoLayerImage(t)
	img.Manifest.Config.Labels = map[string]string{"b": "<&>", "a": "ünïcode"}
	data, err := EncodeManifest(img.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if m.EncodedSize() != int64(len(data)) || len(again) != len(data) {
		t.Errorf("EncodedSize: decoded %d, re-encoded %d; want %d", m.EncodedSize(), len(again), len(data))
	}
}

func TestManifestEncodeDecode(t *testing.T) {
	img := buildTwoLayerImage(t)
	data, err := EncodeManifest(img.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reference() != img.Manifest.Reference() {
		t.Errorf("reference = %q", m.Reference())
	}
	if len(m.Layers) != 2 || m.Layers[0] != img.Manifest.Layers[0] {
		t.Error("layers lost in round trip")
	}
	if len(m.Config.Env) != 1 || m.Config.Env[0] != "PATH=/bin" {
		t.Error("config lost in round trip")
	}
	if _, err := DecodeManifest([]byte("{invalid")); err == nil {
		t.Error("DecodeManifest accepted garbage")
	}
}

func TestValidateDetectsTampering(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Image)
		want   error
	}{
		{
			"manifest digest swap",
			func(i *Image) { i.Manifest.Layers[0] = hashing.DigestBytes([]byte("evil")) },
			ErrLayerMismatch,
		},
		{
			"layer list truncated",
			func(i *Image) { i.Layers = i.Layers[:1] },
			ErrLayerMismatch,
		},
		{
			"tarball corrupted",
			func(i *Image) { i.Layers[0].tarball = append([]byte{0}, i.Layers[0].tarball...) },
			ErrBadDigest,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			img := buildTwoLayerImage(t)
			tt.mutate(img)
			if err := img.Validate(); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestSingleLayerImage(t *testing.T) {
	tree := baseTree(t)
	cfg := Config{Env: []string{"A=1"}, Labels: map[string]string{"gear": "index"}}
	img, err := SingleLayerImage("gear-nginx", "1.17", tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Layers) != 1 {
		t.Fatalf("layers = %d, want 1", len(img.Layers))
	}
	if img.Manifest.Config.Labels["gear"] != "index" {
		t.Error("config not carried")
	}
	root, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if !root.Exists("/bin/sh") {
		t.Error("flattened single-layer image missing content")
	}
}

func TestSharedBaseLayerAcrossImages(t *testing.T) {
	// Figure 1(a): two images sharing the bottom layer have the same
	// bottom digest, enabling layer-level dedup in the registry.
	base := baseTree(t)
	debian, err := SingleLayerImage("debian", "buster-slim", base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("nginx", "1.17")
	if err := b.AddDiffLayer(base.Clone()); err != nil {
		t.Fatal(err)
	}
	app := vfs.New()
	if err := app.WriteFile("/nginx", []byte("bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDiffLayer(app); err != nil {
		t.Fatal(err)
	}
	nginx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if debian.Layers[0].Digest != nginx.Layers[0].Digest {
		t.Error("shared base layer has different digests across images")
	}
	// A built layer stacks again as it is.
	b = NewBuilder("httpd", "2.4")
	b.AddLayer(debian.Layers[0])
	b.AddLayer(nginx.Layers[1])
	httpd, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := httpd.Validate(); err != nil {
		t.Fatal(err)
	}
	if httpd.Layers[0] != debian.Layers[0] || httpd.Manifest.Layers[1] != nginx.Manifest.Layers[1] {
		t.Error("AddLayer did not stack the given layers")
	}
}

func TestBuilderReusableForDerivedImages(t *testing.T) {
	b := NewBuilder("base", "v1")
	if err := b.AddDiffLayer(baseTree(t)); err != nil {
		t.Fatal(err)
	}
	v1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	extra := vfs.New()
	if err := extra.WriteFile("/extra", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDiffLayer(extra); err != nil {
		t.Fatal(err)
	}
	v2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(v1.Layers) != 1 {
		t.Errorf("v1 layers = %d, want 1 (Build must not alias builder state)", len(v1.Layers))
	}
	if len(v2.Layers) != 2 {
		t.Errorf("v2 layers = %d, want 2", len(v2.Layers))
	}
}

func TestManifestTotalSizeEmpty(t *testing.T) {
	m := &Manifest{Name: "a", Tag: "b"}
	if m.TotalSize() != 0 {
		t.Error("empty manifest TotalSize != 0")
	}
}

func BenchmarkLayerFromDiff(b *testing.B) {
	f := vfs.New()
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("/f%03d", i)
		if err := f.WriteFile(p, bytes.Repeat([]byte{byte(i)}, 1024), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLayerFromDiff(f); err != nil {
			b.Fatal(err)
		}
	}
}

// A layer's Digest is the SHA-256 of its stream, though it is taken on a
// goroutine beside the compressor, and its UncompressedSize its tar's
// length: for a layer whose stream is one part and for one of several,
// built from four goroutines at once.
func TestLayerDigestsAreTheBytes(t *testing.T) {
	small := vfs.New()
	if err := small.WriteFile("/hostname", []byte("gear\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	big := vfs.New()
	weights := make([]byte, 20<<20) // incompressible: a stream of parts
	rand.New(rand.NewSource(9)).Read(weights)
	if err := big.WriteFile("/weights.bin", weights, 0o644); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(tree *vfs.FS) {
			defer wg.Done()
			l, err := NewLayerFromDiff(tree)
			if err != nil {
				t.Error(err)
				return
			}
			raw, err := tarstream.Gunzip(l.Tarball())
			if err != nil {
				t.Error(err)
				return
			}
			if l.Digest != hashing.DigestBytes(l.Tarball()) || l.UncompressedSize != int64(len(raw)) {
				t.Errorf("%d-byte layer: digest or size is not its bytes'", l.UncompressedSize)
			}
		}([]*vfs.FS{small, big}[g%2])
	}
	wg.Wait()
}
