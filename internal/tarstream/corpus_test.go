package tarstream_test

import (
	"bytes"
	"crypto/md5"
	"io"
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
