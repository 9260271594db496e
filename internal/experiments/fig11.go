package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/apps"
	"github.com/gear-image/gear/internal/corpus"
	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/fleet"
)

// Fig11Service is one long-running service's normalized throughput.
type Fig11Service struct {
	Name string `json:"name"`
	// DockerOps and GearOps are throughputs (ops/s of virtual time).
	DockerOps float64 `json:"dockerOps"`
	GearOps   float64 `json:"gearOps"`
}

// Normalized returns Gear's rate relative to Docker (paper: ~1.0).
func (s Fig11Service) Normalized() float64 {
	if s.DockerOps == 0 {
		return 0
	}
	return s.GearOps / s.DockerOps
}

// Fig11Short is the short-running lifecycle breakdown, averaged over
// iterations of launch-request-destroy.
type Fig11Short struct {
	Launch  time.Duration `json:"launch"`
	Request time.Duration `json:"request"`
	Destroy time.Duration `json:"destroy"`
}

// Fig11Result reproduces both halves of Fig 11.
type Fig11Result struct {
	Services []Fig11Service `json:"services"`
	// DockerShort/GearShort are httpd's lifecycle costs per system.
	DockerShort Fig11Short `json:"dockerShort"`
	GearShort   Fig11Short `json:"gearShort"`
	// Iterations is the short-running repeat count (paper: 100).
	Iterations int `json:"iterations"`
}

// fig11Services maps the paper's benchmark containers to workload kinds.
var fig11Services = []struct {
	series string
	kv     bool
}{
	{"redis", true},
	{"memcached", true},
	{"nginx", false},
	{"httpd", false},
}

// RunFig11 deploys each service under Docker and Gear and drives the
// memtier-style or ab-style workload against it.
func RunFig11(cfg Config) (*Fig11Result, error) {
	names := make([]string, len(fig11Services))
	for i, svc := range fig11Services {
		names[i] = svc.series
	}
	co, err := corpus.New(corpus.Options{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		SeriesFilter: names,
		MaxVersions:  cfg.VersionsPerSeries,
	})
	if err != nil {
		return nil, err
	}
	wl, err := fleet.Publish(co, co.Series(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*fleet.Series, len(wl.Series))
	for i := range wl.Series {
		byName[wl.Series[i].Name] = &wl.Series[i]
	}

	res := &Fig11Result{Iterations: 100}
	if cfg.VersionsPerSeries > 0 && cfg.VersionsPerSeries < 3 {
		res.Iterations = 20
	}

	const requests = 5000
	for _, svc := range fig11Services {
		s := byName[svc.series]
		access := s.Access[0]
		// Data/content files the service touches in steady state: its
		// launch set (hot files), all local after warm-up.
		run := func(dep *dockersim.Deployment) (apps.Result, error) {
			if svc.kv {
				return apps.RunKV(dep, apps.KVConfig{Requests: requests, DataPaths: access})
			}
			return apps.RunWeb(dep, apps.WebConfig{Requests: requests, ContentPaths: access})
		}

		dd, err := cfg.newDaemon(wl, 904)
		if err != nil {
			return nil, err
		}
		dockerDep, err := dd.DeployDocker(s.Name, s.Tags[0], access, 0)
		if err != nil {
			return nil, err
		}
		dockerRes, err := run(dockerDep)
		if err != nil {
			return nil, err
		}

		gd, err := cfg.newDaemon(wl, 904)
		if err != nil {
			return nil, err
		}
		gearDep, err := gd.DeployGear(s.Ref, s.Tags[0], access, 0)
		if err != nil {
			return nil, err
		}
		gearRes, err := run(gearDep)
		if err != nil {
			return nil, err
		}

		res.Services = append(res.Services, Fig11Service{
			Name:      svc.series,
			DockerOps: dockerRes.Throughput(),
			GearOps:   gearRes.Throughput(),
		})
	}

	// Short-running: launch, one request, destroy, repeated.
	dockerShort, err := shortLifecycle(cfg, wl, byName["httpd"], dockersim.ModeDocker, res.Iterations)
	if err != nil {
		return nil, err
	}
	gearShort, err := shortLifecycle(cfg, wl, byName["httpd"], dockersim.ModeGear, res.Iterations)
	if err != nil {
		return nil, err
	}
	res.DockerShort = dockerShort
	res.GearShort = gearShort
	return res, nil
}

// shortLifecycle repeats launch-request-destroy for httpd under one
// system on a single persistent daemon (so the image is local after the
// first iteration — the paper measures steady-state lifecycle costs).
func shortLifecycle(cfg Config, wl *fleet.Workload, s *fleet.Series, mode dockersim.Mode, iterations int) (Fig11Short, error) {
	d, err := cfg.newDaemon(wl, 904)
	if err != nil {
		return Fig11Short{}, err
	}
	access := s.Access[0]
	var out Fig11Short
	for i := 0; i < iterations; i++ {
		var dep *dockersim.Deployment
		switch mode {
		case dockersim.ModeDocker:
			dep, err = d.DeployDocker(s.Name, s.Tags[0], access, 0)
		case dockersim.ModeGear:
			dep, err = d.DeployGear(s.Ref, s.Tags[0], access, 0)
		default:
			return Fig11Short{}, fmt.Errorf("experiments: short-run mode %v unsupported", mode)
		}
		if err != nil {
			return Fig11Short{}, err
		}
		out.Launch += dep.Total()
		_, cost, err := dep.Read(access[len(access)-1])
		if err != nil {
			return Fig11Short{}, err
		}
		out.Request += cost
		destroy, err := dep.Destroy()
		if err != nil {
			return Fig11Short{}, err
		}
		out.Destroy += destroy
	}
	n := time.Duration(iterations)
	out.Launch /= n
	out.Request /= n
	out.Destroy /= n
	return out, nil
}

// Print renders normalized service rates and the lifecycle breakdown.
func (r *Fig11Result) Print(w io.Writer) {
	fmt.Fprintf(w, "-- long-running (normalized rate, gear/docker; paper: ~1.0) --\n")
	fmt.Fprintf(w, "%-12s %14s %14s %12s\n", "service", "docker ops/s", "gear ops/s", "normalized")
	for _, s := range r.Services {
		fmt.Fprintf(w, "%-12s %14.0f %14.0f %12.3f\n", s.Name, s.DockerOps, s.GearOps, s.Normalized())
	}
	fmt.Fprintf(w, "-- short-running httpd x%d (avg per iteration) --\n", r.Iterations)
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "system", "launch", "request", "destroy")
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "docker",
		r.DockerShort.Launch.Round(time.Microsecond),
		r.DockerShort.Request.Round(time.Microsecond),
		r.DockerShort.Destroy.Round(time.Microsecond))
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "gear",
		r.GearShort.Launch.Round(time.Microsecond),
		r.GearShort.Request.Round(time.Microsecond),
		r.GearShort.Destroy.Round(time.Microsecond))
	fmt.Fprintf(w, "gear destroy advantage: %.2fx faster (paper: slight advantage)\n",
		safeRatio(r.DockerShort.Destroy, r.GearShort.Destroy))
}

func safeRatio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
