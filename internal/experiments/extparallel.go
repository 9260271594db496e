package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/gear-image/gear/internal/dockersim"
)

// ExtParallelPoint is one worker-count sample of the fetch-engine sweep.
type ExtParallelPoint struct {
	// Workers is the daemon's FetchWorkers setting (1 = the serial
	// per-fault baseline path).
	Workers int `json:"workers"`
	// DeployTime is the summed deployment time of the cold-cache rollout.
	DeployTime time.Duration `json:"deployTime"`
	// Speedup is DeployTime(workers=1) / DeployTime(workers).
	Speedup float64 `json:"speedup"`
	// Requests/Bytes are the rollout's total wire traffic; they must be
	// identical at every worker count (parallelism changes time, not
	// volume).
	Requests int64 `json:"requests"`
	Bytes    int64 `json:"bytes"`
}

// ExtParallelResult is the concurrent-fetch-engine sweep: the same
// cold-cache category rollout deployed with 1..16 fetch workers. With
// one worker the daemon uses the serial per-fault path the paper
// describes; with more, launch-time fetching goes through FetchAll —
// per-worker batched downloads over fair-shared link streams — so the
// per-object round trips that dominate small-file transfer are
// amortized and overlapped.
type ExtParallelResult struct {
	// Series lists the deployed series (one per category).
	Series []string `json:"series"`
	// Deploys is the number of deployments summed into each point.
	Deploys int                `json:"deploys"`
	Points  []ExtParallelPoint `json:"points"`
}

// extParallelWorkers is the swept worker-count axis.
var extParallelWorkers = []int{1, 2, 4, 8, 16}

// RunExtParallel deploys one series per category (versions capped) on a
// fresh daemon per worker count, clearing the Gear cache between
// deployments so every deployment fetches its full necessary set.
func RunExtParallel(cfg Config) (*ExtParallelResult, error) {
	// The sweep repeats the same rollout once per worker count; keep it
	// to a category-representative slice of the corpus.
	if cfg.SeriesPerCategory <= 0 {
		cfg.SeriesPerCategory = 1
	}
	if cfg.VersionsPerSeries <= 0 || cfg.VersionsPerSeries > 3 {
		cfg.VersionsPerSeries = 3
	}
	co, err := cfg.newCorpus(nil)
	if err != nil {
		return nil, err
	}
	series := cfg.pickSeries(co)
	r, err := cfg.buildRig(co, series, false)
	if err != nil {
		return nil, err
	}

	res := &ExtParallelResult{}
	for _, s := range series {
		res.Series = append(res.Series, s.Name)
	}
	for _, workers := range extParallelWorkers {
		opts := cfg.daemonOptions(904)
		opts.FetchWorkers = workers
		d, err := dockersim.NewDaemon(r.docker, r.gear, opts)
		if err != nil {
			return nil, err
		}
		var total time.Duration
		var bytes, requests int64
		deploys := 0
		for _, s := range series {
			for v := 0; v < s.NumVersions; v++ {
				access, err := accessPaths(co, s.Name, v)
				if err != nil {
					return nil, err
				}
				dep, err := d.DeployGear(gearRef(s.Name), s.Tags()[v], access, 0)
				if err != nil {
					return nil, err
				}
				total += dep.Total()
				bytes += dep.Pull.Bytes + dep.Run.Bytes
				requests += dep.Pull.Requests + dep.Run.Requests
				if _, err := dep.Destroy(); err != nil {
					return nil, err
				}
				// Cold cache: the next deployment must not reuse files
				// shared with this version.
				d.ClearGearCache()
				deploys++
			}
		}
		res.Deploys = deploys
		p := ExtParallelPoint{Workers: workers, DeployTime: total, Bytes: bytes, Requests: requests}
		if len(res.Points) == 0 {
			p.Speedup = 1
		} else {
			p.Speedup = float64(res.Points[0].DeployTime) / float64(total)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Print renders the worker sweep.
func (r *ExtParallelResult) Print(w io.Writer) {
	fmt.Fprintf(w, "cold-cache rollout of %d deployments (%v), 904 Mbps link\n",
		r.Deploys, r.Series)
	fmt.Fprintf(w, "%-8s %14s %9s %10s %12s\n",
		"workers", "deploy time", "speedup", "requests", "bytes")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-8d %14s %8.2fx %10d %12s\n",
			p.Workers, p.DeployTime.Round(time.Millisecond), p.Speedup, p.Requests, mb(p.Bytes))
	}
	fmt.Fprintln(w, "bytes and requests are identical at every worker count: the engine")
	fmt.Fprintln(w, "overlaps per-object round trips, it does not change what is fetched")
}
