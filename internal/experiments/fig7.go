package experiments

import (
	"fmt"
	"io"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/gear/convert"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/registry"
)

// Fig7Category is one category's registry-footprint comparison.
type Fig7Category struct {
	Category corpus.Category `json:"category"`
	// DockerBytes is the Docker registry footprint (layer-level dedup +
	// per-layer gzip).
	DockerBytes int64 `json:"dockerBytes"`
	// GearBytes is the Gear footprint: index images in the Docker
	// registry plus file-level-deduplicated, compressed Gear files.
	GearBytes int64 `json:"gearBytes"`
}

// Saving returns Gear's storage saving over Docker.
func (c Fig7Category) Saving() float64 {
	if c.DockerBytes == 0 {
		return 0
	}
	return 1 - float64(c.GearBytes)/float64(c.DockerBytes)
}

// Fig7Result is the storage-saving study: per category (Fig 7a) and the
// whole top-50 corpus in one registry (Fig 7b).
type Fig7Result struct {
	Categories []Fig7Category `json:"categories"`
	// Overall is the whole-corpus comparison (Fig 7b).
	Overall Fig7Category `json:"overall"`
	// AvgIndexBytes is the mean serialized Gear index size; the paper
	// measures ~0.53 MB (~0.53 KB at our scale).
	AvgIndexBytes int64 `json:"avgIndexBytes"`
	// IndexShare is the index registry's stored (compressed) bytes as a
	// fraction of total Gear storage (paper: 1.1%; larger here because
	// the corpus shrinks file bytes 1000x but not path/fingerprint
	// metadata).
	IndexShare float64 `json:"indexShare"`
}

// RunFig7 builds per-category registry pairs plus one overall pair and
// compares footprints.
func RunFig7(cfg Config) (*Fig7Result, error) {
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	series := cfg.pickSeries(co)

	res := &Fig7Result{}

	// Per-category (Fig 7a).
	byCat := make(map[corpus.Category][]corpus.Series)
	for _, s := range series {
		byCat[s.Category] = append(byCat[s.Category], s)
	}
	for _, cat := range corpus.Categories() {
		group, ok := byCat[cat]
		if !ok {
			continue
		}
		row, _, err := measureFootprints(co, group)
		if err != nil {
			return nil, err
		}
		row.Category = cat
		res.Categories = append(res.Categories, row)
	}

	// Whole corpus (Fig 7b) plus index statistics.
	overall, indexStats, err := measureFootprints(co, series)
	if err != nil {
		return nil, err
	}
	res.Overall = overall
	if indexStats.count > 0 {
		res.AvgIndexBytes = indexStats.totalBytes / int64(indexStats.count)
	}
	if overall.GearBytes > 0 {
		res.IndexShare = float64(indexStats.storedBytes) / float64(overall.GearBytes)
	}
	return res, nil
}

type indexAccounting struct {
	count       int
	totalBytes  int64 // uncompressed serialized index bytes
	storedBytes int64 // index registry footprint (compressed layers)
}

// measureFootprints pushes the group's images into a fresh Docker
// registry and, separately, their Gear forms into a fresh index registry
// + Gear file store, returning both footprints.
func measureFootprints(co *corpus.Corpus, group []corpus.Series) (Fig7Category, indexAccounting, error) {
	dockerReg := registry.New()
	indexReg := registry.New()
	gearReg := gearregistry.New(gearregistry.Options{Compress: true})
	conv, err := convert.New(convert.Options{})
	if err != nil {
		return Fig7Category{}, indexAccounting{}, err
	}
	var acct indexAccounting
	for _, s := range group {
		for v := 0; v < s.NumVersions; v++ {
			img, err := co.Image(s.Name, v)
			if err != nil {
				return Fig7Category{}, indexAccounting{}, err
			}
			if _, err := registry.Push(dockerReg, img); err != nil {
				return Fig7Category{}, indexAccounting{}, err
			}
			resConv, err := conv.Convert(img)
			if err != nil {
				return Fig7Category{}, indexAccounting{}, err
			}
			if _, _, err := convert.Publish(resConv, indexReg, gearReg); err != nil {
				return Fig7Category{}, indexAccounting{}, err
			}
			st, err := resConv.Index.Stats()
			if err != nil {
				return Fig7Category{}, indexAccounting{}, err
			}
			acct.count++
			acct.totalBytes += st.IndexBytes
		}
	}
	acct.storedBytes = indexReg.Stats().TotalBytes()
	row := Fig7Category{
		DockerBytes: dockerReg.Stats().TotalBytes(),
		GearBytes:   acct.storedBytes + gearReg.Stats().StoredBytes,
	}
	return row, acct, nil
}

// paperFig7 holds the paper's per-category savings for reference.
var paperFig7 = map[corpus.Category]float64{
	corpus.Distro:       0.205,
	corpus.Language:     0.328,
	corpus.Database:     0.522,
	corpus.WebComponent: 0.609,
	corpus.Platform:     0.586,
	corpus.Others:       0.467,
}

// Print renders per-category and overall savings beside the paper's.
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-22s %12s %12s %9s %9s\n", "category", "docker", "gear", "saving", "paper")
	for _, row := range r.Categories {
		fmt.Fprintf(w, "%-22s %12s %12s %8.1f%% %8.1f%%\n",
			row.Category, mb(row.DockerBytes), mb(row.GearBytes),
			row.Saving()*100, paperFig7[row.Category]*100)
	}
	fmt.Fprintf(w, "%-22s %12s %12s %8.1f%% %8.1f%%\n",
		"overall (fig 7b)", mb(r.Overall.DockerBytes), mb(r.Overall.GearBytes),
		r.Overall.Saving()*100, 53.7)
	fmt.Fprintf(w, "avg index size = %d B; index share of gear storage = %.1f%% (paper: ~0.53 MB, 1.1%%)\n",
		r.AvgIndexBytes, r.IndexShare*100)
}
