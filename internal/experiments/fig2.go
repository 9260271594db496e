package experiments

import (
	"fmt"
	"io"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/hashing"
)

// Fig2Result is the necessary-data redundancy study of §II-D: how much
// of the data needed to launch version N+1 is already present in version
// N's necessary set — i.e. what a local file cache saves when rolling
// out a new version.
type Fig2Result struct {
	// ByCategory maps category -> redundancy ratio in [0,1].
	ByCategory map[corpus.Category]float64 `json:"byCategory"`
	// Average is the unweighted mean of the per-category ratios, matching
	// how the paper reads its 39.9% off the Fig 2 bars.
	Average float64 `json:"average"`
}

// RunFig2 measures consecutive-version necessary-set overlap by content
// fingerprint, per category.
func RunFig2(cfg Config) (*Fig2Result, error) {
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	catShared := make(map[corpus.Category]int64)
	catTotal := make(map[corpus.Category]int64)

	for _, s := range cfg.pickSeries(co) {
		prev := make(map[hashing.Fingerprint]bool)
		for v := 0; v < s.NumVersions; v++ {
			cur, err := necessaryFingerprints(co, s.Name, v)
			if err != nil {
				return nil, err
			}
			if v > 0 {
				for fp, size := range cur {
					catTotal[s.Category] += size
					if prev[fp] {
						catShared[s.Category] += size
					}
				}
			}
			prev = make(map[hashing.Fingerprint]bool, len(cur))
			for fp := range cur {
				prev[fp] = true
			}
		}
	}

	res := &Fig2Result{ByCategory: make(map[corpus.Category]float64)}
	for cat, total := range catTotal {
		if total > 0 {
			res.ByCategory[cat] = float64(catShared[cat]) / float64(total)
		}
	}
	// Summed in category order: float addition in map order would let
	// the last bit of the average differ from run to run.
	for _, cat := range categoryOrder(res.ByCategory) {
		res.Average += res.ByCategory[cat]
	}
	if len(res.ByCategory) > 0 {
		res.Average /= float64(len(res.ByCategory))
	}
	return res, nil
}

// necessaryFingerprints returns fingerprint -> size of a version's
// necessary files.
func necessaryFingerprints(co *corpus.Corpus, series string, version int) (map[hashing.Fingerprint]int64, error) {
	img, err := co.Image(series, version)
	if err != nil {
		return nil, err
	}
	root, err := img.Flatten()
	if err != nil {
		return nil, err
	}
	items, err := co.NecessarySet(series, version)
	if err != nil {
		return nil, err
	}
	out := make(map[hashing.Fingerprint]int64, len(items))
	for _, it := range items {
		data, err := root.ReadFile(it.Path)
		if err != nil {
			return nil, err
		}
		out[hashing.FingerprintBytes(data)] = int64(len(data))
	}
	return out, nil
}

// paperFig2 holds the paper's reported redundancy ratios for reference.
var paperFig2 = map[corpus.Category]float64{
	corpus.Database: 0.560,
	corpus.Platform: 0.574,
}

// Print renders per-category redundancy next to the paper's anchors.
func (r *Fig2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-22s %12s %10s\n", "category", "redundancy", "paper")
	for _, cat := range categoryOrder(r.ByCategory) {
		paper := "-"
		if p, ok := paperFig2[cat]; ok {
			paper = fmt.Sprintf("%.1f%%", p*100)
		}
		fmt.Fprintf(w, "%-22s %11.1f%% %10s\n", cat, r.ByCategory[cat]*100, paper)
	}
	fmt.Fprintf(w, "%-22s %11.1f%% %10s\n", "average", r.Average*100, "39.9%")
}
