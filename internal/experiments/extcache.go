package experiments

import (
	"fmt"
	"io"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/dockersim"
	"github.com/gear-image/gear/internal/fleet"
)

// ExtCachePoint is one (capacity, policy) cell of the cache ablation.
type ExtCachePoint struct {
	// CapacityFrac is the cache capacity as a fraction of the rollout's
	// unique gear-file bytes (0 = unlimited).
	CapacityFrac float64 `json:"capacityFrac"`
	Policy       string  `json:"policy"`
	// RemoteBytes is the total fetched over the rollout.
	RemoteBytes int64 `json:"remoteBytes"`
	// RollbackBytes is fetched when v01 is re-deployed after the rollout:
	// tight caches evicted its unique files and must re-download them.
	RollbackBytes int64 `json:"rollbackBytes"`
	// Evictions counts cache evictions under pressure.
	Evictions int64 `json:"evictions"`
	// HitRatio is the cache's hit ratio over the rollout.
	HitRatio float64 `json:"hitRatio"`
}

// ExtCacheResult is the level-1 cache ablation (DESIGN.md §5.3): how the
// paper's "users can decide how much storage it can occupy and can apply
// replacement algorithms ... such as FIFO or LRU" knobs trade local disk
// for bandwidth on a version rollout.
type ExtCacheResult struct {
	Series string `json:"series"`
	// UniqueBytes is the rollout's total unique gear-file volume — the
	// 100% cache point.
	UniqueBytes int64           `json:"uniqueBytes"`
	Points      []ExtCachePoint `json:"points"`
}

// extCacheFracs are the swept capacities (fractions of unique bytes).
var extCacheFracs = []float64{0, 0.5, 0.25, 0.1}

// RunExtCache rolls one client through every redis version per
// (capacity, policy) configuration and measures remote traffic.
func RunExtCache(cfg Config) (*ExtCacheResult, error) {
	const seriesName = "redis"
	co, err := cfg.newCorpus([]string{seriesName})
	if err != nil {
		return nil, err
	}
	wl, err := fleet.Publish(co, co.Series(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	s := &wl.Series[0]

	res := &ExtCacheResult{
		Series:      seriesName,
		UniqueBytes: wl.Gear.Stats().LogicalBytes,
	}
	for _, frac := range extCacheFracs {
		for _, policy := range []cache.Policy{cache.FIFO, cache.LRU} {
			if frac == 0 && policy == cache.FIFO {
				continue // unlimited cache never evicts; one policy suffices
			}
			capacity := int64(float64(res.UniqueBytes) * frac)
			opts := cfg.daemonOptions(100)
			// This sweep was calibrated at dockersim's unscaled default
			// request overhead, and its committed rows are priced so.
			opts.GearRequestBytes = 0
			opts.CacheCapacity = capacity
			opts.CachePolicy = policy
			d, err := dockersim.NewDaemon(wl.Docker, wl.Gear, opts)
			if err != nil {
				return nil, err
			}
			// The daemons may share one registry (cfg.Telemetry), whose
			// cache counters then span the sweep: take this one's delta.
			before := d.Telemetry().Snapshot()
			// Rolling upgrade: after deploying version v, the v-1
			// container and image are deleted (the CI/CD pattern of
			// §II-D), so older files lose their index links and become
			// eviction candidates.
			var remote int64
			var prev *dockersim.Deployment
			for v, tag := range s.Tags {
				dep, err := d.DeployGear(s.Ref, tag, s.Access[v], 0)
				if err != nil {
					return nil, err
				}
				remote += dep.Pull.Bytes + dep.Run.Bytes
				if prev != nil {
					if _, err := prev.Destroy(); err != nil {
						return nil, err
					}
					if err := d.GearStore().RemoveIndex(prev.Ref); err != nil {
						return nil, err
					}
				}
				prev = dep
			}
			// Rollback: an incident forces v01 back into service.
			rb, err := d.DeployGear(s.Ref, s.Tags[0], s.Access[0], 0)
			if err != nil {
				return nil, err
			}
			cs := d.Telemetry().Snapshot().Diff(before)
			hits, misses := cs.Counter("cache.hits"), cs.Counter("cache.misses")
			var hitRatio float64
			if hits+misses > 0 {
				hitRatio = float64(hits) / float64(hits+misses)
			}
			res.Points = append(res.Points, ExtCachePoint{
				CapacityFrac:  frac,
				Policy:        policy.String(),
				RemoteBytes:   remote,
				RollbackBytes: rb.Pull.Bytes + rb.Run.Bytes,
				Evictions:     cs.Counter("cache.evictions"),
				HitRatio:      hitRatio,
			})
		}
	}
	return res, nil
}

// Print renders the sweep.
func (r *ExtCacheResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s rollout, level-1 cache sweep (unique gear bytes: %s)\n",
		r.Series, mb(r.UniqueBytes))
	fmt.Fprintf(w, "%-10s %-8s %12s %12s %10s %10s\n",
		"capacity", "policy", "rollout", "rollback", "evictions", "hit ratio")
	for _, p := range r.Points {
		capacity := "unlimited"
		if p.CapacityFrac > 0 {
			capacity = fmt.Sprintf("%.0f%%", p.CapacityFrac*100)
		}
		fmt.Fprintf(w, "%-10s %-8s %12s %12s %10d %9.2f\n",
			capacity, p.Policy, mb(p.RemoteBytes), mb(p.RollbackBytes), p.Evictions, p.HitRatio)
	}
	fmt.Fprintln(w, "pin-aware eviction keeps the rollout itself bandwidth-neutral even at 10%;")
	fmt.Fprintln(w, "the cost of a tight cache appears on rollback, when evicted versions return")
}
