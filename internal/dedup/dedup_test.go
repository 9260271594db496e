package dedup

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// studyChunkSize is the paper's 128 KB study setting.
const studyChunkSize = 128 << 10

// mkImage builds an image with the given layers; each layer is a list of
// (path, content) pairs.
func mkImage(t *testing.T, name, tag string, layers ...map[string]string) *imagefmt.Image {
	t.Helper()
	b := imagefmt.NewBuilder(name, tag)
	for _, files := range layers {
		f := vfs.New()
		for p, content := range files {
			if err := f.MkdirAll(vfs.Clean(p[:strings.LastIndex(p, "/")+1]), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := f.WriteFile(p, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.AddDiffLayer(f); err != nil {
			t.Fatal(err)
		}
	}
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// analyze runs one Analyzer over images, as the experiments do, and
// returns its rows.
func analyze(t *testing.T, images []*imagefmt.Image, chunkSize int64) []Report {
	t.Helper()
	a, err := NewAnalyzer(chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range images {
		if err := a.Add(img); err != nil {
			t.Fatal(err)
		}
	}
	return a.Reports()
}

func reportsByG(reports []Report) map[Granularity]Report {
	out := make(map[Granularity]Report, len(reports))
	for _, r := range reports {
		out[r.Granularity] = r
	}
	return out
}

func TestGranularityString(t *testing.T) {
	names := map[Granularity]string{
		None: "none", Layer: "layer", File: "file", Chunk: "chunk", CDC: "cdc", Granularity(9): "Granularity(9)",
	}
	for g, want := range names {
		if got := g.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", g, got, want)
		}
	}
}

func TestNewAnalyzerRejectsBadChunkSize(t *testing.T) {
	for _, sz := range []int64{0, -1} {
		if _, err := NewAnalyzer(sz); !errors.Is(err, ErrBadChunkSize) {
			t.Errorf("chunk size %d err = %v", sz, err)
		}
	}
}

func TestObjectCountsAcrossGranularities(t *testing.T) {
	// Two images sharing their base layer; top layers share one file.
	base := map[string]string{"/bin/sh": "shell", "/etc/os": "debian"}
	imgs := []*imagefmt.Image{
		mkImage(t, "a", "1", base, map[string]string{"/app": "app-a", "/shared": "common"}),
		mkImage(t, "b", "1", base, map[string]string{"/app": "app-b", "/shared": "common"}),
	}
	reports := analyze(t, imgs, studyChunkSize)
	r := reportsByG(reports)
	if r[None].Objects != 2 {
		t.Errorf("none objects = %d, want 2 images", r[None].Objects)
	}
	// Unique layers: base (shared) + 2 distinct tops = 3.
	if r[Layer].Objects != 3 {
		t.Errorf("layer objects = %d, want 3", r[Layer].Objects)
	}
	// Unique files: sh, os, app-a, app-b, common = 5.
	if r[File].Objects != 5 {
		t.Errorf("file objects = %d, want 5", r[File].Objects)
	}
	// All files < chunk size: chunk count equals file count.
	if r[Chunk].Objects != 5 {
		t.Errorf("chunk objects = %d, want 5", r[Chunk].Objects)
	}
}

func TestStorageMonotonicallyShrinks(t *testing.T) {
	// Table II's ordering: none >= layer >= file (>= chunk on raw bytes).
	rng := rand.New(rand.NewSource(11))
	sharedBase := map[string]string{}
	for i := 0; i < 20; i++ {
		data := make([]byte, 500)
		rng.Read(data)
		sharedBase[fmt.Sprintf("/lib/l%02d", i)] = string(data)
	}
	var imgs []*imagefmt.Image
	for v := 0; v < 5; v++ {
		top := map[string]string{"/version": fmt.Sprint(v)}
		imgs = append(imgs, mkImage(t, "app", fmt.Sprint(v), sharedBase, top))
	}
	reports := analyze(t, imgs, studyChunkSize)
	r := reportsByG(reports)
	if !(r[None].RawBytes >= r[Layer].RawBytes && r[Layer].RawBytes >= r[File].RawBytes) {
		t.Errorf("raw bytes not monotone: none=%d layer=%d file=%d",
			r[None].RawBytes, r[Layer].RawBytes, r[File].RawBytes)
	}
	if r[File].RawBytes < r[Chunk].RawBytes {
		t.Errorf("chunk raw %d > file raw %d", r[Chunk].RawBytes, r[File].RawBytes)
	}
	// Five identical base layers dedup away: layer storage must be much
	// smaller than none.
	if float64(r[Layer].RawBytes) > 0.5*float64(r[None].RawBytes) {
		t.Errorf("layer dedup saved too little: %d vs %d", r[Layer].RawBytes, r[None].RawBytes)
	}
}

func TestChunkLevelSplitsBigFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := make([]byte, 10*1024)
	rng.Read(big)
	img := mkImage(t, "big", "1", map[string]string{"/blob": string(big)})
	reports := analyze(t, []*imagefmt.Image{img}, 1024)
	r := reportsByG(reports)
	if r[File].Objects != 1 {
		t.Errorf("file objects = %d, want 1", r[File].Objects)
	}
	if r[Chunk].Objects != 10 {
		t.Errorf("chunk objects = %d, want 10", r[Chunk].Objects)
	}
}

func TestChunkLevelFindsSubFileDuplication(t *testing.T) {
	// Two files differing only in their last kilobyte: file-level stores
	// both fully, chunk-level shares the identical prefix chunks.
	rng := rand.New(rand.NewSource(6))
	prefix := make([]byte, 8*1024)
	rng.Read(prefix)
	fileA := string(prefix) + "tail-A"
	fileB := string(prefix) + "tail-B"
	img := mkImage(t, "x", "1", map[string]string{"/a": fileA, "/b": fileB})
	reports := analyze(t, []*imagefmt.Image{img}, 1024)
	r := reportsByG(reports)
	if r[File].RawBytes != int64(len(fileA)+len(fileB)) {
		t.Errorf("file raw = %d", r[File].RawBytes)
	}
	if r[Chunk].RawBytes >= r[File].RawBytes {
		t.Errorf("chunk raw %d not smaller than file raw %d", r[Chunk].RawBytes, r[File].RawBytes)
	}
	// 8 shared prefix chunks + 2 distinct tails = 10 objects vs 2 files.
	if r[Chunk].Objects != 10 {
		t.Errorf("chunk objects = %d, want 10", r[Chunk].Objects)
	}
}

func TestCDCSurvivesOffsetShift(t *testing.T) {
	// A byte prepended to a big file shifts every fixed-size chunk
	// boundary, so fixed chunking re-stores nearly everything; the
	// content-defined row re-cuts at the same content boundaries and
	// shares almost all of it.
	rng := rand.New(rand.NewSource(7))
	body := make([]byte, 64*1024)
	rng.Read(body)
	img := mkImage(t, "s", "1", map[string]string{
		"/orig":    string(body),
		"/shifted": "!" + string(body),
	})
	reports := analyze(t, []*imagefmt.Image{img}, 1024)
	r := reportsByG(reports)
	if r[Chunk].RawBytes < 64*1024*19/10 {
		t.Errorf("fixed chunks shared shifted data: raw = %d", r[Chunk].RawBytes)
	}
	if r[CDC].RawBytes > 64*1024*13/10 {
		t.Errorf("cdc raw = %d, want near one copy of %d", r[CDC].RawBytes, 64*1024)
	}
	if r[CDC].RawBytes > r[Chunk].RawBytes {
		t.Errorf("cdc raw %d > fixed-chunk raw %d", r[CDC].RawBytes, r[Chunk].RawBytes)
	}
}

func TestCDCSmallFilesStayWhole(t *testing.T) {
	// Files at most MaxSize (4x the average) are one CDC object each,
	// matching the file row exactly.
	img := mkImage(t, "w", "1", map[string]string{"/a": "alpha", "/b": "beta"})
	reports := analyze(t, []*imagefmt.Image{img}, 1024)
	r := reportsByG(reports)
	if r[CDC] != (Report{Granularity: CDC, StorageBytes: r[File].StorageBytes,
		RawBytes: r[File].RawBytes, Objects: r[File].Objects}) {
		t.Errorf("cdc row %+v differs from file row %+v on whole-file corpus", r[CDC], r[File])
	}
}

func TestCompressionAccounted(t *testing.T) {
	compressible := make([]byte, 4096) // zeros compress well
	img := mkImage(t, "z", "1", map[string]string{"/zeros": string(compressible)})
	reports := analyze(t, []*imagefmt.Image{img}, studyChunkSize)
	for _, r := range reports {
		if r.StorageBytes >= r.RawBytes {
			t.Errorf("%s: stored %d >= raw %d for compressible data",
				r.Granularity, r.StorageBytes, r.RawBytes)
		}
	}
}

func TestEmptyFileCounted(t *testing.T) {
	img := mkImage(t, "e", "1", map[string]string{"/empty": ""})
	reports := analyze(t, []*imagefmt.Image{img}, 1024)
	r := reportsByG(reports)
	if r[File].Objects != 1 || r[Chunk].Objects != 1 {
		t.Errorf("empty file objects: file=%d chunk=%d, want 1/1", r[File].Objects, r[Chunk].Objects)
	}
}

func TestAddRejectsInvalidImage(t *testing.T) {
	a, err := NewAnalyzer(studyChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	img := mkImage(t, "a", "1", map[string]string{"/f": "x"})
	img.Layers = nil
	if err := a.Add(img); err == nil {
		t.Error("invalid image accepted")
	}
}

// Rows read between adds leave the final rows as one read at the end.
func TestIncrementalMatchesBatch(t *testing.T) {
	imgs := []*imagefmt.Image{
		mkImage(t, "a", "1", map[string]string{"/f": "one"}),
		mkImage(t, "b", "1", map[string]string{"/f": "one", "/g": "two"}),
	}
	batch := analyze(t, imgs, studyChunkSize)
	a, err := NewAnalyzer(studyChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range imgs {
		if err := a.Add(img); err != nil {
			t.Fatal(err)
		}
		_ = a.Reports() // a report between adds changes nothing
	}
	inc := a.Reports()
	for i := range batch {
		if batch[i] != inc[i] {
			t.Errorf("row %d: batch %+v != incremental %+v", i, batch[i], inc[i])
		}
	}
}
