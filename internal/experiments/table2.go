package experiments

import (
	"fmt"
	"io"

	"github.com/gear-image/gear/internal/dedup"
)

// Table2Result is the dedup-granularity study of §II-D.
type Table2Result struct {
	Rows []dedup.Report `json:"rows"`
	// Images is the corpus size analyzed.
	Images int `json:"images"`
}

// RunTable2 ingests the whole corpus into the dedup analyzer.
func RunTable2(cfg Config) (*Table2Result, error) {
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	analyzer, err := dedup.NewAnalyzer(cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	images := 0
	for _, s := range cfg.pickSeries(co) {
		for v := 0; v < s.NumVersions; v++ {
			img, err := co.Image(s.Name, v)
			if err != nil {
				return nil, err
			}
			if err := analyzer.Add(img); err != nil {
				return nil, err
			}
			images++
		}
	}
	return &Table2Result{Rows: analyzer.Reports(), Images: images}, nil
}

// Print renders the Table II rows plus the derived ratios the paper
// quotes (layer/file/chunk savings vs none; chunk-object blowup).
func (r *Table2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%d images analyzed (chunk size %s)\n", r.Images, "per config")
	fmt.Fprintf(w, "%-12s %14s %14s %12s\n", "granularity", "storage", "raw", "objects")
	base := r.Rows[0].StorageBytes
	var fileObjects, chunkObjects int64
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %14s %14s %12d\n",
			row.Granularity, mb(row.StorageBytes), mb(row.RawBytes), row.Objects)
		switch row.Granularity {
		case dedup.File:
			fileObjects = row.Objects
		case dedup.Chunk:
			chunkObjects = row.Objects
		}
	}
	for _, row := range r.Rows[1:] {
		saving := 1 - float64(row.StorageBytes)/float64(base)
		fmt.Fprintf(w, "saving at %-7s = %5.1f%% (paper: layer 74%%, file 87%%, chunk 88%%)\n",
			row.Granularity.String(), saving*100)
	}
	if fileObjects > 0 {
		fmt.Fprintf(w, "chunk/file object blowup = %.1fx (paper: 16.4x)\n",
			float64(chunkObjects)/float64(fileObjects))
	}
}
