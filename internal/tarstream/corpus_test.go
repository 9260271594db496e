package tarstream_test

import (
	"bytes"
	"crypto/md5"
	"io"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/vfs"
)

// The pool stores a Gear file of one segment as exactly the stream Gzip
// writes of it, bounded match skip and all: every such file of the
// first two versions of every series of the calibrated corpus (scale 1,
// the experiments' seed) puts its text before its noise, so the skip
// never has compressible bytes to outrun. Files are checked once per
// distinct content.
func TestGearFilesStoreAsGzip(t *testing.T) {
	co, err := corpus.New(corpus.Options{Seed: 20211107, Scale: 1, MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[md5.Size]byte]bool)
	for _, s := range co.Series() {
		for v := 0; v < s.NumVersions; v++ {
			img, err := co.Image(s.Name, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range img.Layers {
				tree, err := l.Tree()
				if err != nil {
					t.Fatal(err)
				}
				err = tree.Walk(func(p string, n *vfs.Node) error {
					if n.Type() != vfs.TypeRegular {
						return nil
					}
					data := n.Content().Data()
					sum := md5.Sum(data)
					if len(data) > tarstream.SegmentSize || seen[sum] {
						return nil
					}
					seen[sum] = true
					plain, err := tarstream.Gzip(data)
					if err != nil {
						return err
					}
					stored, _, _, err := tarstream.GzipFrom(bytes.NewReader(data), io.Discard)
					if err != nil {
						return err
					}
					if !bytes.Equal(stored, plain) {
						t.Errorf("%s:%s %s (%d bytes): stored in %d bytes, not as Gzip's %d", s.Name, img.Manifest.Tag, p, len(data), len(stored), len(plain))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if len(seen) < 1000 {
		t.Fatalf("checked %d files, want the corpus's 1000 and more", len(seen))
	}
}

// gunzipInputs are the benchmark's deploy corpus in miniature — the
// first version of three of its series, at scale 1 — as what is
// inflated on a pull: each layer as the registry stores it, and each
// distinct Gear file as the pool stores it (GzipFrom). raw counts the
// bytes each set inflates to; the layers' set also keeps each layer's
// tar, which is what NewLayerFromDiff compresses.
var gunzipInputs = sync.OnceValues(func() (sets [2]gunzipSet, err error) {
	co, err := corpus.New(corpus.Options{
		Seed: 20211107, Scale: 1, MaxVersions: 1,
		SeriesFilter: []string{"python", "redis", "nginx"},
	})
	if err != nil {
		return sets, err
	}
	seen := make(map[[md5.Size]byte]bool)
	for _, s := range co.Series() {
		img, err := co.Image(s.Name, 0)
		if err != nil {
			return sets, err
		}
		for _, l := range img.Layers {
			sets[0].add(l.Tarball(), l.UncompressedSize)
			tar, err := tarstream.Gunzip(l.Tarball())
			if err != nil {
				return sets, err
			}
			sets[0].tars = append(sets[0].tars, tar)
			tree, err := l.Tree()
			if err != nil {
				return sets, err
			}
			err = tree.Walk(func(_ string, n *vfs.Node) error {
				data := n.Content().Data()
				if n.Type() != vfs.TypeRegular || seen[md5.Sum(data)] {
					return nil
				}
				seen[md5.Sum(data)] = true
				stored, _, _, err := tarstream.GzipFrom(bytes.NewReader(data), io.Discard)
				sets[1].add(stored, int64(len(data)))
				return err
			})
			if err != nil {
				return sets, err
			}
		}
	}
	return sets, nil
})

type gunzipSet struct {
	streams [][]byte
	tars    [][]byte // the layers' set only: what each stream inflates to
	raw     int64
}

func (g *gunzipSet) add(stream []byte, raw int64) {
	g.streams = append(g.streams, stream)
	g.raw += raw
}

// benchGunzip inflates every stream of set i with Gunzip, the call the
// benchmark's tarstream.gunzip_mbps probe times.
func benchGunzip(b *testing.B, i int) {
	sets, err := gunzipInputs()
	if err != nil {
		b.Fatal(err)
	}
	set := sets[i]
	b.ReportAllocs()
	b.SetBytes(set.raw)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, z := range set.streams {
			if _, err := tarstream.Gunzip(z); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGunzipLayers inflates the corpus's layers, as pulled.
func BenchmarkGunzipLayers(b *testing.B) { benchGunzip(b, 0) }

// BenchmarkGunzipObjects inflates the corpus's Gear files, as stored.
func BenchmarkGunzipObjects(b *testing.B) { benchGunzip(b, 1) }

// BenchmarkGzipLayers compresses the corpus's layer tars with Gzip, as
// NewLayerFromDiff does when an image is built: BenchmarkGunzipLayers's
// inputs, the other way round, and what the tarstream.gzip_mbps probe
// times.
func BenchmarkGzipLayers(b *testing.B) {
	sets, err := gunzipInputs()
	if err != nil {
		b.Fatal(err)
	}
	set := sets[0]
	b.ReportAllocs()
	b.SetBytes(set.raw)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, tar := range set.tars {
			if _, err := tarstream.Gzip(tar); err != nil {
				b.Fatal(err)
			}
		}
	}
}
