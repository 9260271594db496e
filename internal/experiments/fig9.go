package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/corpus"
)

// Fig9Bandwidths are the paper's link speeds, Mbps.
var Fig9Bandwidths = []float64{904, 100, 20, 5}

// Fig9Cell is one (bandwidth, category, mode) aggregate.
type Fig9Cell struct {
	Pull time.Duration `json:"pull"`
	Run  time.Duration `json:"run"`
}

// Total returns pull+run.
func (c Fig9Cell) Total() time.Duration { return c.Pull + c.Run }

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
	series := cfg.pickSeries(co)
	r, err := cfg.buildRig(co, series, false)
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

		for _, s := range series {
			warm, err := cfg.newDaemon(r, mbps)
			if err != nil {
				return nil, err
			}
			compute, err := co.TaskCompute(s.Name)
			if err != nil {
				return nil, err
			}
			for v := 0; v < s.NumVersions; v++ {
				access, err := accessPaths(co, s.Name, v)
				if err != nil {
					return nil, err
				}
				tag := s.Tags()[v]

				dd, err := cfg.newDaemon(r, mbps)
				if err != nil {
					return nil, err
				}
				dockerDep, err := dd.DeployDocker(s.Name, tag, access, compute)
				if err != nil {
					return nil, err
				}
				cd, err := cfg.newDaemon(r, mbps)
				if err != nil {
					return nil, err
				}
				coldDep, err := cd.DeployGear(gearRef(s.Name), tag, access, compute)
				if err != nil {
					return nil, err
				}
				warmDep, err := warm.DeployGear(gearRef(s.Name), tag, access, compute)
				if err != nil {
					return nil, err
				}

				cat := s.Category
				counts[cat]++
				addCell(band.Docker, cat, dockerDep.Pull.Time, dockerDep.Run.Time)
				addCell(band.GearCold, cat, coldDep.Pull.Time, coldDep.Run.Time)
				addCell(band.GearWarm, cat, warmDep.Pull.Time, warmDep.Run.Time)
				dockerSum += dockerDep.Total()
				coldSum += coldDep.Total()
				warmSum += warmDep.Total()
			}
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

func addCell(m map[corpus.Category]Fig9Cell, cat corpus.Category, pull, run time.Duration) {
	c := m[cat]
	c.Pull += pull
	c.Run += run
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
