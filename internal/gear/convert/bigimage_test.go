package convert

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// bigTree is an AI-style image's one layer: a 32 MiB weights file, which
// the unpacker keeps beside its reader and a 256 KiB CDC policy splits,
// and four libraries of 0.5–1 MiB, which it reads through its scratch.
func bigTree(t testing.TB) *vfs.FS {
	t.Helper()
	rng := rand.New(rand.NewSource(45))
	tree := vfs.New()
	weights := make([]byte, 32<<20)
	rng.Read(weights)
	if err := tree.MkdirAll("/srv/model", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tree.WriteFile("/srv/model/weights.bin", weights, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tree.MkdirAll("/usr/lib", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		lib := make([]byte, 512<<10+i*170<<10)
		rng.Read(lib)
		if err := tree.WriteFile(fmt.Sprintf("/usr/lib/lib%d.so", i), lib, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// One big layer is hashed once per kind of hash. Building it takes the
// stream's Digest once, though beside the compressor, and nothing of the
// tar; converting it validates the layer once and
// fingerprints each distinct content — every file and every chunk of
// the weights — once, though the weights are kept beside the unpacker
// and their chunks are hashed on every core.
func TestBigLayerHashedOncePerKind(t *testing.T) {
	tree := bigTree(t)
	before := hashing.DigestedBytes()
	img, err := imagefmt.SingleLayerImage("model", "v1", tree, imagefmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	layer := img.Layers[0]
	if got, want := hashing.DigestedBytes()-before, layer.Size; got != want {
		t.Errorf("building the layer digested %d bytes, want %d: its stream once", got, want)
	}

	pol := index.CDCChunks(256 << 10)
	want := make(map[[sha256.Size]byte]bool)
	_ = tree.Walk(func(_ string, n *vfs.Node) error {
		if n.Type() != vfs.TypeRegular {
			return nil
		}
		data := n.Content().Data()
		want[sha256.Sum256(data)] = true
		chunks, err := pol.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			want[sha256.Sum256(c)] = true
		}
		return nil
	})
	if len(want) < 100 {
		t.Fatalf("%d distinct contents: the weights were not split", len(want))
	}
	c := newConverter(t, Options{Chunking: pol})
	counted := newCountingHasher(hashing.MD5{})
	c.reg = hashing.NewRegistry(counted)
	c.files = newTable(c.reg)
	before = hashing.DigestedBytes()
	res, err := c.Convert(img)
	if err != nil {
		t.Fatal(err)
	}
	ixLayer := res.IndexImage.Layers[0]
	if got, want := hashing.DigestedBytes()-before, layer.Size+ixLayer.Size; got != want {
		t.Errorf("converting digested %d bytes, want %d: the layer validated once and the index layer built", got, want)
	}
	for v, n := range counted.calls {
		if !want[v] {
			t.Errorf("fingerprinted a content the image does not hold")
		} else if n != 1 {
			t.Errorf("a content was fingerprinted %d times, want once", n)
		}
	}
	if len(counted.calls) != len(want) {
		t.Errorf("%d contents fingerprinted, want the image's %d", len(counted.calls), len(want))
	}
}

// No goroutine that builds, unpacks or converts a big layer outlives the
// call: not the one that hashes a layer beside its compressor, not the
// one that keeps a big file beside the unpacker, not the chunk hashers,
// and not after an unpack that fails on an archive cut after its big
// entry, while that entry's Keep may still be running.
func TestNoGoroutineOutlivesABigLayer(t *testing.T) {
	tree := bigTree(t)
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// A goroutine that has signalled it is done may not have exited.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s left %d goroutines running", what, n-base)
		}
	}

	img, err := imagefmt.SingleLayerImage("model", "v1", tree, imagefmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	settled("NewLayerFromDiff")
	// A Keep that takes its time with a big file and counts the calls
	// it ends: none may end once the unpack has returned.
	var kept atomic.Int64
	slowKeep := func(content []byte, borrowed bool) []byte {
		defer kept.Add(1)
		if !borrowed {
			time.Sleep(50 * time.Millisecond)
		}
		return bytes.Clone(content)
	}
	unpack := func(what string, gz []byte) error {
		t.Helper()
		_, err := tarstream.UnpackGzKeep(gz, slowKeep)
		n := kept.Load()
		settled(what)
		if kept.Load() != n {
			t.Errorf("%s returned with a Keep running", what)
		}
		return err
	}
	if err := unpack("UnpackGzKeep", img.Layers[0].Tarball()); err != nil {
		t.Fatal(err)
	}
	c := newConverter(t, Options{Chunking: index.CDCChunks(256 << 10)})
	if _, err := c.Convert(img); err != nil {
		t.Fatal(err)
	}
	settled("Convert")

	// The header after the weights' content is made corrupt: the weights
	// go to their keeper, then the archive fails.
	raw, err := tarstream.Pack(tree)
	if err != nil {
		t.Fatal(err)
	}
	at := 32<<20 + 3*512
	for at < len(raw) && !bytes.HasPrefix(raw[at:], []byte("usr")) {
		at += 512
	}
	if at >= len(raw) {
		t.Fatal("no header after the weights")
	}
	raw[at+148] ^= 0xff // the header's checksum
	gz, err := tarstream.Gzip(raw)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := imagefmt.NewLayerFromTarball(gz, hashing.DigestBytes(gz), "")
	if err != nil {
		t.Fatal(err)
	}
	b := imagefmt.NewBuilder("model", "cut")
	b.AddLayer(cut)
	bad, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := unpack("a failed UnpackGzKeep", gz); !errors.Is(err, tarstream.ErrCorrupt) {
		t.Fatalf("unpacking an archive corrupt after its big entry: %v, want ErrCorrupt", err)
	}
	if _, err := c.Convert(bad); !errors.Is(err, tarstream.ErrCorrupt) {
		t.Fatalf("converting an archive corrupt after its big entry: %v, want ErrCorrupt", err)
	}
	settled("a failed Convert")
}
