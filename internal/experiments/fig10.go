package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/fleet"
	"github.com/gear-image/gear/internal/slacker"
)

// Fig10Bandwidths are the rollout study's link speeds, Mbps.
var Fig10Bandwidths = []float64{1000, 100}

// Fig10Point is one deployed version's total time per system.
type Fig10Point struct {
	Version int           `json:"version"`
	Docker  time.Duration `json:"docker"`
	Slacker time.Duration `json:"slacker"`
	Gear    time.Duration `json:"gear"`
}

// Fig10Band is the rollout at one bandwidth.
type Fig10Band struct {
	Mbps   float64       `json:"mbps"`
	Points []Fig10Point  `json:"points"`
	AvgD   time.Duration `json:"avgDocker"`
	AvgS   time.Duration `json:"avgSlacker"`
	AvgG   time.Duration `json:"avgGear"`
}

// Fig10Result is the sequential Tomcat-version rollout: one client
// deploys version after version, keeping its local state (Docker layer
// store, Gear cache) between deployments. Slacker has no cross-version
// sharing, which is the paper's point.
type Fig10Result struct {
	Series string      `json:"series"`
	Bands  []Fig10Band `json:"bands"`
}

// RunFig10 rolls out every tomcat version under each system at each
// bandwidth.
func RunFig10(cfg Config) (*Fig10Result, error) {
	const seriesName = "tomcat"
	co, err := corpus.New(corpus.Options{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		SeriesFilter: []string{seriesName},
		MaxVersions:  cfg.VersionsPerSeries,
	})
	if err != nil {
		return nil, err
	}
	wl, err := fleet.Publish(co, co.Series(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	s := &wl.Series[0]
	// Slacker's block devices, laid out from the same images.
	slack := slacker.NewServer()
	for v := range s.Tags {
		img, err := co.Image(seriesName, v)
		if err != nil {
			return nil, err
		}
		bi, err := slacker.FromImage(img, slackerBlockSize)
		if err != nil {
			return nil, err
		}
		slack.Put(bi)
	}

	res := &Fig10Result{Series: seriesName}
	for _, mbps := range Fig10Bandwidths {
		// One persistent daemon per system: local state accumulates
		// across the rollout exactly as on the paper's single client.
		dockerD, err := cfg.newDaemon(wl, mbps)
		if err != nil {
			return nil, err
		}
		slackerD, err := cfg.newDaemon(wl, mbps)
		if err != nil {
			return nil, err
		}
		slackerD.ConfigureSlacker(slack)
		gearD, err := cfg.newDaemon(wl, mbps)
		if err != nil {
			return nil, err
		}

		band := Fig10Band{Mbps: mbps}
		for v, tag := range s.Tags {
			access, compute := s.Access[v], s.Compute
			dd, err := dockerD.DeployDocker(seriesName, tag, access, compute)
			if err != nil {
				return nil, err
			}
			sd, err := slackerD.DeploySlacker(seriesName, tag, access, compute)
			if err != nil {
				return nil, err
			}
			gd, err := gearD.DeployGear(s.Ref, tag, access, compute)
			if err != nil {
				return nil, err
			}
			band.Points = append(band.Points, Fig10Point{
				Version: v + 1,
				Docker:  dd.Total(),
				Slacker: sd.Total(),
				Gear:    gd.Total(),
			})
			band.AvgD += dd.Total()
			band.AvgS += sd.Total()
			band.AvgG += gd.Total()
		}
		n := time.Duration(len(band.Points))
		band.AvgD /= n
		band.AvgS /= n
		band.AvgG /= n
		res.Bands = append(res.Bands, band)
	}
	return res, nil
}

// Print renders the per-version series and averages.
func (r *Fig10Result) Print(w io.Writer) {
	for _, band := range r.Bands {
		fmt.Fprintf(w, "-- %s rollout at %g Mbps --\n", r.Series, band.Mbps)
		fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "version", "docker", "slacker", "gear")
		for _, p := range band.Points {
			fmt.Fprintf(w, "%-8d %12s %12s %12s\n", p.Version,
				p.Docker.Round(time.Millisecond),
				p.Slacker.Round(time.Millisecond),
				p.Gear.Round(time.Millisecond))
		}
		fmt.Fprintf(w, "avg: docker %s, slacker %s, gear %s (paper at 1000 Mbps: 6.08 s / 3.03 s / 3.04 s)\n",
			band.AvgD.Round(time.Millisecond), band.AvgS.Round(time.Millisecond),
			band.AvgG.Round(time.Millisecond))
	}
	if len(r.Bands) == 2 {
		d := float64(r.Bands[1].AvgD) / float64(r.Bands[0].AvgD)
		s := float64(r.Bands[1].AvgS) / float64(r.Bands[0].AvgS)
		g := float64(r.Bands[1].AvgG) / float64(r.Bands[0].AvgG)
		fmt.Fprintf(w, "1000->100 Mbps slowdown: docker %.1fx, slacker %.1fx, gear %.1fx (paper: 2.7x / 2.6x / 1.2x)\n",
			d, s, g)
	}
}
