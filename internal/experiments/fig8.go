package experiments

import (
	"fmt"
	"io"

	"github.com/gear-image/gear/internal/corpus"
)

// Fig8Category is one category's per-deployment transfer volume.
type Fig8Category struct {
	Category corpus.Category `json:"category"`
	Deploys  int             `json:"deploys"`
	// DockerBytes / GearColdBytes / GearWarmBytes are average bytes
	// transferred per deployment in each mode.
	DockerBytes   int64 `json:"dockerBytes"`
	GearColdBytes int64 `json:"gearColdBytes"`
	GearWarmBytes int64 `json:"gearWarmBytes"`
}

// Fig8Result is the bandwidth study: bytes moved per deployment under
// Docker (full image), Gear with an empty local cache, and Gear with a
// maintained cache.
type Fig8Result struct {
	Categories []Fig8Category `json:"categories"`
	// ColdShare is gear-cold bytes / docker bytes overall (paper: 29.1%,
	// i.e. a 70.9% reduction).
	ColdShare float64 `json:"coldShare"`
	// WarmShare is gear-warm bytes / docker bytes overall (paper: 16.2%).
	WarmShare float64 `json:"warmShare"`
}

// RunFig8 deploys every selected image three ways and accumulates
// transfer volumes.
func RunFig8(cfg Config) (*Fig8Result, error) {
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	series := cfg.pickSeries(co)
	r, err := cfg.buildRig(co, series, false)
	if err != nil {
		return nil, err
	}

	byCat := make(map[corpus.Category]*Fig8Category)
	var dockerTotal, coldTotal, warmTotal int64

	for _, s := range series {
		// Warm-cache daemon persists across the series' versions.
		warm, err := cfg.newDaemon(r, 904)
		if err != nil {
			return nil, err
		}
		row := byCat[s.Category]
		if row == nil {
			row = &Fig8Category{Category: s.Category}
			byCat[s.Category] = row
		}
		for v := 0; v < s.NumVersions; v++ {
			access, err := accessPaths(co, s.Name, v)
			if err != nil {
				return nil, err
			}
			tag := s.Tags()[v]

			// Docker: fresh daemon, full image each time.
			dd, err := cfg.newDaemon(r, 904)
			if err != nil {
				return nil, err
			}
			dockerDep, err := dd.DeployDocker(s.Name, tag, access, 0)
			if err != nil {
				return nil, err
			}

			// Gear cold: fresh daemon (empty cache) each time.
			cd, err := cfg.newDaemon(r, 904)
			if err != nil {
				return nil, err
			}
			coldDep, err := cd.DeployGear(gearRef(s.Name), tag, access, 0)
			if err != nil {
				return nil, err
			}

			// Gear warm: persistent daemon.
			warmDep, err := warm.DeployGear(gearRef(s.Name), tag, access, 0)
			if err != nil {
				return nil, err
			}

			row.Deploys++
			row.DockerBytes += dockerDep.Pull.Bytes + dockerDep.Run.Bytes
			row.GearColdBytes += coldDep.Pull.Bytes + coldDep.Run.Bytes
			row.GearWarmBytes += warmDep.Pull.Bytes + warmDep.Run.Bytes
		}
	}

	res := &Fig8Result{}
	for _, cat := range corpus.Categories() {
		row, ok := byCat[cat]
		if !ok {
			continue
		}
		dockerTotal += row.DockerBytes
		coldTotal += row.GearColdBytes
		warmTotal += row.GearWarmBytes
		n := int64(row.Deploys)
		row.DockerBytes /= n
		row.GearColdBytes /= n
		row.GearWarmBytes /= n
		res.Categories = append(res.Categories, *row)
	}
	if dockerTotal > 0 {
		res.ColdShare = float64(coldTotal) / float64(dockerTotal)
		res.WarmShare = float64(warmTotal) / float64(dockerTotal)
	}
	return res, nil
}

// Print renders per-category transfer volumes and the headline shares.
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-22s %8s %12s %14s %14s\n",
		"category", "deploys", "docker", "gear (cold)", "gear (cache)")
	for _, row := range r.Categories {
		fmt.Fprintf(w, "%-22s %8d %12s %14s %14s\n",
			row.Category, row.Deploys, mb(row.DockerBytes),
			mb(row.GearColdBytes), mb(row.GearWarmBytes))
	}
	fmt.Fprintf(w, "gear cold transfers %.1f%% of docker (paper: 29.1%%)\n", r.ColdShare*100)
	fmt.Fprintf(w, "gear warm transfers %.1f%% of docker (paper: 16.2%%)\n", r.WarmShare*100)
}
