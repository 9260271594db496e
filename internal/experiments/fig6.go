package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/gear-image/gear/internal/disksim"
	"github.com/gear-image/gear/internal/gear/convert"
)

// Fig6Series is one series' conversion measurement.
type Fig6Series struct {
	Name string `json:"name"`
	// AvgUncompressedBytes is the mean image size of the series.
	AvgUncompressedBytes int64 `json:"avgUncompressedBytes"`
	// AvgHDD and AvgSSD are mean conversion times on each device.
	AvgHDD time.Duration `json:"avgHdd"`
	AvgSSD time.Duration `json:"avgSsd"`
}

// Fig6Result is the conversion-time study. The paper reports an overall
// ~46 s average on HDD and a 65.7% reduction for node on SSD; since our
// corpus is ~1/1000 scale, times land in the tens of milliseconds with
// the same proportionality and SSD ratio.
type Fig6Result struct {
	Series []Fig6Series `json:"series"` // ascending by size, as the paper plots
	// AvgHDD is the corpus-wide mean conversion time.
	AvgHDD time.Duration `json:"avgHdd"`
	// NodeReduction is node's SSD-vs-HDD improvement.
	NodeReduction float64 `json:"nodeReduction"`
}

// RunFig6 converts every image twice (HDD-modeled and SSD-modeled) and
// aggregates per series.
func RunFig6(cfg Config) (*Fig6Result, error) {
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	hdd, err := convert.New(convert.Options{Disk: disksim.HDD()})
	if err != nil {
		return nil, err
	}
	ssd, err := convert.New(convert.Options{Disk: disksim.SSD()})
	if err != nil {
		return nil, err
	}

	var out []Fig6Series
	var hddSum time.Duration
	var conversions int
	for _, s := range cfg.pickSeries(co) {
		var row Fig6Series
		row.Name = s.Name
		for v := 0; v < s.NumVersions; v++ {
			img, err := co.Image(s.Name, v)
			if err != nil {
				return nil, err
			}
			for _, l := range img.Layers {
				row.AvgUncompressedBytes += l.UncompressedSize
			}
			rh, err := hdd.Convert(img)
			if err != nil {
				return nil, err
			}
			rs, err := ssd.Convert(img)
			if err != nil {
				return nil, err
			}
			row.AvgHDD += rh.Timing.Total()
			row.AvgSSD += rs.Timing.Total()
			hddSum += rh.Timing.Total()
			conversions++
		}
		n := time.Duration(s.NumVersions)
		row.AvgUncompressedBytes /= int64(s.NumVersions)
		row.AvgHDD /= n
		row.AvgSSD /= n
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].AvgUncompressedBytes < out[j].AvgUncompressedBytes
	})
	res := &Fig6Result{Series: out}
	if conversions > 0 {
		res.AvgHDD = hddSum / time.Duration(conversions)
	}
	for _, row := range out {
		if row.Name == "node" && row.AvgHDD > 0 {
			res.NodeReduction = 1 - float64(row.AvgSSD)/float64(row.AvgHDD)
		}
	}
	return res, nil
}

// Print renders the per-series rows in ascending size order.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-20s %12s %12s %12s\n", "series", "avg size", "hdd", "ssd")
	for _, row := range r.Series {
		fmt.Fprintf(w, "%-20s %12s %12s %12s\n",
			row.Name, mb(row.AvgUncompressedBytes),
			row.AvgHDD.Round(time.Millisecond), row.AvgSSD.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "average hdd conversion = %s (paper: ~46 s at 1000x scale)\n",
		r.AvgHDD.Round(time.Millisecond))
	if r.NodeReduction > 0 {
		fmt.Fprintf(w, "node ssd reduction = %.1f%% (paper: 65.7%%)\n", r.NodeReduction*100)
	}
}
