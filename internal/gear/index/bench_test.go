package index

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// benchIndex builds a mid-size index: 20 directories of 25 files each
// plus a handful of chunked big files — roughly the entry count of the
// paper's smaller images.
func benchIndex(b *testing.B) *Index {
	b.Helper()
	fs := vfs.New()
	rng := rand.New(rand.NewSource(11))
	for d := 0; d < 20; d++ {
		dir := fmt.Sprintf("/app/dir%02d", d)
		if err := fs.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for f := 0; f < 25; f++ {
			data := make([]byte, 64+rng.Intn(512))
			rng.Read(data)
			if err := fs.WriteFile(fmt.Sprintf("%s/f%02d", dir, f), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
	big := make([]byte, 64<<10)
	rng.Read(big)
	for i := 0; i < 4; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/app/big%d.bin", i), big, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	ix, _, err := BuildPolicy("bench", "v1", imagefmt.Config{}, fs, nil, FixedChunks(8192))
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func BenchmarkEncodeBinary(b *testing.B) {
	ix := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBinary(ix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	ix := benchIndex(b)
	enc, err := EncodeBinary(ix)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkToTree(b *testing.B) {
	ix := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.ToTree(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFromImage is the index install up to the decoded index: one
// inflate of the index layer, the index file read out of the tar stream,
// DecodeBinary.
func BenchmarkFromImage(b *testing.B) {
	img, err := benchIndex(b).ToImage()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(img.Layers[0].Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromImage(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstallIndex is the whole index install of a deploy: the index
// image as it was pulled to the mounted placeholder tree and chunk tables
// (MountImage), with no Index in between.
func BenchmarkInstallIndex(b *testing.B) {
	img, err := benchIndex(b).ToImage()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(img.Layers[0].Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MountImage(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstallAndTouch is the index's share of a deploy: the install,
// and a lookup of the files the container reads — every sixth, as in the
// corpus — which is what builds their nodes.
func BenchmarkInstallAndTouch(b *testing.B) {
	ix := benchIndex(b)
	img, err := ix.ToImage()
	if err != nil {
		b.Fatal(err)
	}
	var read []string
	for d := 0; d < 20; d++ {
		for f := d % 6; f < 25; f += 6 {
			read = append(read, fmt.Sprintf("/app/dir%02d/f%02d", d, f))
		}
	}
	b.ReportAllocs()
	b.SetBytes(img.Layers[0].Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := MountImage(img)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range read {
			if m.Tree.Lookup(p) == nil {
				b.Fatalf("%s does not resolve", p)
			}
		}
	}
}
