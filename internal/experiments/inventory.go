package experiments

import (
	"fmt"
	"io"

	"github.com/gear-image/gear/internal/corpus"
)

// InventoryCategory summarizes one category of the generated corpus.
type InventoryCategory struct {
	Category corpus.Category `json:"category"`
	Series   int             `json:"series"`
	Images   int             `json:"images"`
	// AvgImageBytes is the mean uncompressed image size.
	AvgImageBytes int64 `json:"avgImageBytes"`
	// AvgFiles is the mean regular-file count per image.
	AvgFiles int `json:"avgFiles"`
	// NecessaryRatio is mean necessary bytes / image bytes — what an
	// on-demand format downloads (the paper quotes 6.4%-33.3%).
	NecessaryRatio float64 `json:"necessaryRatio"`
}

// InventoryResult describes the corpus the other experiments run on —
// the synthetic counterpart of the paper's §V-A workload table.
type InventoryResult struct {
	Series     int                 `json:"series"`
	Images     int                 `json:"images"`
	TotalBytes int64               `json:"totalBytes"`
	Categories []InventoryCategory `json:"categories"`
}

// RunInventory measures the corpus composition. To keep it cheap it
// samples the first, middle, and last version of each series.
func RunInventory(cfg Config) (*InventoryResult, error) {
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	series := cfg.pickSeries(co)
	res := &InventoryResult{Series: len(series)}
	agg := make(map[corpus.Category]*InventoryCategory)

	for _, s := range series {
		row := agg[s.Category]
		if row == nil {
			row = &InventoryCategory{Category: s.Category}
			agg[s.Category] = row
		}
		row.Series++
		row.Images += s.NumVersions
		res.Images += s.NumVersions

		samples := []int{0, s.NumVersions / 2, s.NumVersions - 1}
		var sampleBytes, necessaryBytes int64
		var sampleFiles int
		seen := make(map[int]bool)
		n := 0
		for _, v := range samples {
			if seen[v] {
				continue
			}
			seen[v] = true
			n++
			img, err := co.Image(s.Name, v)
			if err != nil {
				return nil, err
			}
			root, err := img.Flatten()
			if err != nil {
				return nil, err
			}
			st := root.Stats()
			sampleBytes += st.Bytes
			sampleFiles += st.Files
			items, err := co.NecessarySet(s.Name, v)
			if err != nil {
				return nil, err
			}
			for _, it := range items {
				necessaryBytes += it.Size
			}
		}
		avgBytes := sampleBytes / int64(n)
		row.AvgImageBytes += avgBytes * int64(s.NumVersions)
		row.AvgFiles += (sampleFiles / n) * s.NumVersions
		row.NecessaryRatio += float64(necessaryBytes) / float64(sampleBytes) * float64(s.NumVersions)
		res.TotalBytes += avgBytes * int64(s.NumVersions)
	}

	for _, cat := range corpus.Categories() {
		row, ok := agg[cat]
		if !ok {
			continue
		}
		row.AvgImageBytes /= int64(row.Images)
		row.AvgFiles /= row.Images
		row.NecessaryRatio /= float64(row.Images)
		res.Categories = append(res.Categories, *row)
	}
	return res, nil
}

// Print renders the corpus composition table.
func (r *InventoryResult) Print(w io.Writer) {
	fmt.Fprintf(w, "corpus: %d series, %d images, ~%s uncompressed (paper: 50 / 971 / 370 GB)\n",
		r.Series, r.Images, mb(r.TotalBytes))
	fmt.Fprintf(w, "%-22s %7s %7s %12s %10s %11s\n",
		"category", "series", "images", "avg size", "avg files", "necessary")
	for _, row := range r.Categories {
		fmt.Fprintf(w, "%-22s %7d %7d %12s %10d %10.1f%%\n",
			row.Category, row.Series, row.Images, mb(row.AvgImageBytes),
			row.AvgFiles, row.NecessaryRatio*100)
	}
	fmt.Fprintln(w, "(necessary = launch-time on-demand fraction; paper's formats fetch 6.4%-33.3%)")
}
