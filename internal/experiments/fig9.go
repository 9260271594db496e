package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/fleet"
)

// Fig9Bandwidths are the paper's link speeds, Mbps.
var Fig9Bandwidths = []float64{904, 100, 20, 5}

// Fig9Cell is one (bandwidth, category, mode) aggregate.
type Fig9Cell struct {
	Pull time.Duration `json:"pull"`
	Run  time.Duration `json:"run"`
}

// Fig9Band is one bandwidth's measurements.
type Fig9Band struct {
	Mbps float64 `json:"mbps"`
	// Docker/GearCold/GearWarm map category -> average phase times.
	Docker   map[corpus.Category]Fig9Cell `json:"docker"`
	GearCold map[corpus.Category]Fig9Cell `json:"gearCold"`
	GearWarm map[corpus.Category]Fig9Cell `json:"gearWarm"`
	// SpeedupCold/SpeedupWarm are overall Docker/Gear total-time ratios.
	SpeedupCold float64 `json:"speedupCold"`
	SpeedupWarm float64 `json:"speedupWarm"`
}

// Fig9Result is the deployment-time study across bandwidths.
type Fig9Result struct {
	Bands []Fig9Band `json:"bands"`
}

// RunFig9 deploys the selected corpus at each bandwidth in three modes
// and averages pull/run phases per category.
func RunFig9(cfg Config) (*Fig9Result, error) {
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	wl, err := fleet.Publish(co, cfg.pickSeries(co), cfg.Scale)
	if err != nil {
		return nil, err
	}

	res := &Fig9Result{}
	for _, mbps := range Fig9Bandwidths {
		band := Fig9Band{
			Mbps:     mbps,
			Docker:   make(map[corpus.Category]Fig9Cell),
			GearCold: make(map[corpus.Category]Fig9Cell),
			GearWarm: make(map[corpus.Category]Fig9Cell),
		}
		counts := make(map[corpus.Category]int)
		var dockerSum, coldSum, warmSum time.Duration

		if err := cfg.threeWays(wl, mbps, func(s *fleet.Series, docker, cold, warm *dockersim.Deployment) {
			counts[s.Category]++
			addCell(band.Docker, s.Category, docker)
			addCell(band.GearCold, s.Category, cold)
			addCell(band.GearWarm, s.Category, warm)
			dockerSum += docker.Total()
			coldSum += cold.Total()
			warmSum += warm.Total()
		}); err != nil {
			return nil, err
		}
		for cat, n := range counts {
			band.Docker[cat] = divCell(band.Docker[cat], n)
			band.GearCold[cat] = divCell(band.GearCold[cat], n)
			band.GearWarm[cat] = divCell(band.GearWarm[cat], n)
		}
		if coldSum > 0 {
			band.SpeedupCold = float64(dockerSum) / float64(coldSum)
		}
		if warmSum > 0 {
			band.SpeedupWarm = float64(dockerSum) / float64(warmSum)
		}
		res.Bands = append(res.Bands, band)
	}
	return res, nil
}

func addCell(m map[corpus.Category]Fig9Cell, cat corpus.Category, dep *dockersim.Deployment) {
	c := m[cat]
	c.Pull += dep.Pull.Time
	c.Run += dep.Run.Time
	m[cat] = c
}

func divCell(c Fig9Cell, n int) Fig9Cell {
	c.Pull /= time.Duration(n)
	c.Run /= time.Duration(n)
	return c
}

// paperFig9 anchors: overall speedups (warm, cold) the paper quotes per
// bandwidth.
var paperFig9 = map[float64][2]float64{
	904: {1.64, 1.40},
	100: {2.61, 1.92},
	20:  {3.45, 2.23},
	5:   {5.01, 2.95},
}

// Print renders one block per bandwidth with per-category pull/run rows.
func (r *Fig9Result) Print(w io.Writer) {
	for _, band := range r.Bands {
		fmt.Fprintf(w, "-- %g Mbps --\n", band.Mbps)
		fmt.Fprintf(w, "%-22s %22s %22s %22s\n",
			"category", "docker (pull+run)", "gear cold", "gear warm")
		for _, cat := range corpus.Categories() {
			d, ok := band.Docker[cat]
			if !ok {
				continue
			}
			g := band.GearCold[cat]
			gw := band.GearWarm[cat]
			fmt.Fprintf(w, "%-22s %10s +%10s %10s +%10s %10s +%10s\n",
				cat,
				d.Pull.Round(time.Millisecond), d.Run.Round(time.Millisecond),
				g.Pull.Round(time.Millisecond), g.Run.Round(time.Millisecond),
				gw.Pull.Round(time.Millisecond), gw.Run.Round(time.Millisecond))
		}
		anchors := paperFig9[band.Mbps]
		fmt.Fprintf(w, "speedup: gear warm %.2fx (paper %.2fx), gear cold %.2fx (paper %.2fx)\n",
			band.SpeedupWarm, anchors[0], band.SpeedupCold, anchors[1])
	}
}
