// Package peer implements peer-to-peer Gear-file distribution inside a
// cluster, the EdgePier insight applied to Gear's format: because every
// level-1 cache entry is an independent, fingerprint-verified object,
// any node that holds a Gear file can serve it to its neighbours over
// the cheap LAN, sparing the registry's WAN egress on fleet rollouts.
//
// Three pieces cooperate:
//
//   - a Tracker maps fingerprint → holders; nodes announce files as
//     their caches admit them and withdraw them on eviction (wired via
//     cache.Hooks);
//   - a Server exports a node's level-1 cache over the registry's own
//     query/download/batch verb set, with a bounded concurrent-serve
//     limit and bytes-served accounting;
//   - an Exchange is the fetch-side: locate holders, download from one,
//     verify the fingerprint, and report a miss so the caller falls
//     back to the registry.
//
// Every byte a peer serves is verified against its content address by
// the receiver, so a corrupt or malicious peer degrades to a registry
// fetch, never to corrupt data.
package peer

import (
	"fmt"
	"sync"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
)

// Tracker maintains the cluster's fingerprint → holders map. It is the
// peer-distribution analogue of the registry's query verb: instead of
// "is this file stored?", it answers "which of my neighbours already
// has it?". Safe for concurrent use.
type Tracker struct {
	mu      sync.Mutex
	holders map[hashing.Fingerprint][]string // announce order
	files   map[string]int                   // holder id → #fingerprints held

	// Telemetry handles are the counters' only storage; the membership
	// gauges mirror the map sizes and are maintained under mu.
	tele                 *telemetry.Registry
	fingerprints         *telemetry.Gauge
	holdersGauge         *telemetry.Gauge
	announces, withdraws *telemetry.Counter

	// Served-traffic reports, split by source. Nodes report after a
	// deployment so cluster operators can see how much of the rollout
	// the peers absorbed (gearctl peers).
	peerObjects, registryObjects *telemetry.Counter
	peerBytes, registryBytes     *telemetry.Counter
}

// NewTracker returns an empty tracker publishing tracker.* metrics into
// a private telemetry registry.
func NewTracker() *Tracker {
	reg := telemetry.NewRegistry()
	return &Tracker{
		holders:         make(map[hashing.Fingerprint][]string),
		files:           make(map[string]int),
		tele:            reg,
		fingerprints:    reg.Gauge("tracker.fingerprints"),
		holdersGauge:    reg.Gauge("tracker.holders"),
		announces:       reg.Counter("tracker.announces"),
		withdraws:       reg.Counter("tracker.withdraws"),
		peerObjects:     reg.Counter("tracker.peer.objects"),
		peerBytes:       reg.Counter("tracker.peer.bytes"),
		registryObjects: reg.Counter("tracker.registry.objects"),
		registryBytes:   reg.Counter("tracker.registry.bytes"),
	}
}

// Telemetry returns the metrics registry this tracker publishes into.
func (t *Tracker) Telemetry() *telemetry.Registry { return t.tele }

// Snapshot implements telemetry.Snapshotter: the unified telemetry
// snapshot for this tracker, what the /peer/metrics endpoint serves.
func (t *Tracker) Snapshot() telemetry.Snapshot { return t.tele.Snapshot() }

// Announce records that holder now has the given Gear files. Announcing
// a file the tracker already maps to the holder is a no-op.
func (t *Tracker) Announce(holder string, fps ...hashing.Fingerprint) error {
	if holder == "" {
		return fmt.Errorf("peer: announce: empty holder id")
	}
	for _, fp := range fps {
		if err := fp.Validate(); err != nil {
			return fmt.Errorf("peer: announce: %w", err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, fp := range fps {
		if holderIndex(t.holders[fp], holder) >= 0 {
			continue
		}
		if len(t.holders[fp]) == 0 {
			t.fingerprints.Add(1)
		}
		t.holders[fp] = append(t.holders[fp], holder)
		if t.files[holder] == 0 {
			t.holdersGauge.Add(1)
		}
		t.files[holder]++
		t.announces.Inc()
	}
	return nil
}

// Withdraw records that holder no longer has the given Gear files (its
// cache evicted them). Withdrawing an unannounced file is a no-op —
// eviction hooks may race admit callbacks, and the fetch path verifies
// and falls back anyway, so the tracker tolerates a stale view.
func (t *Tracker) Withdraw(holder string, fps ...hashing.Fingerprint) error {
	if holder == "" {
		return fmt.Errorf("peer: withdraw: empty holder id")
	}
	for _, fp := range fps {
		if err := fp.Validate(); err != nil {
			return fmt.Errorf("peer: withdraw: %w", err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, fp := range fps {
		hs := t.holders[fp]
		i := holderIndex(hs, holder)
		if i < 0 {
			continue
		}
		t.holders[fp] = append(hs[:i], hs[i+1:]...)
		if len(t.holders[fp]) == 0 {
			delete(t.holders, fp)
			t.fingerprints.Add(-1)
		}
		if t.files[holder]--; t.files[holder] == 0 {
			delete(t.files, holder)
			t.holdersGauge.Add(-1)
		}
		t.withdraws.Inc()
	}
	return nil
}

// Locate returns the holders of fp, excluding the requester itself. The
// list is rotated deterministically by fingerprint so different files
// start at different holders and serve load spreads across the cluster
// without coordination.
func (t *Tracker) Locate(fp hashing.Fingerprint, exclude string) []string {
	t.mu.Lock()
	hs := t.holders[fp]
	out := make([]string, 0, len(hs))
	for _, h := range hs {
		if h != exclude {
			out = append(out, h)
		}
	}
	t.mu.Unlock()
	if len(out) > 1 && len(fp) > 0 {
		start := int(fp[len(fp)-1]) % len(out)
		rotated := make([]string, 0, len(out))
		rotated = append(rotated, out[start:]...)
		rotated = append(rotated, out[:start]...)
		out = rotated
	}
	return out
}

// Hooks returns cache membership hooks that keep the tracker's view of
// holder's level-1 cache current: admits announce, evictions withdraw.
// Install with cache.SetHooks before the cache sees traffic.
func (t *Tracker) Hooks(holder string) cache.Hooks {
	return cache.Hooks{
		OnAdmit: func(fp hashing.Fingerprint, _ int64) {
			_ = t.Announce(holder, fp)
		},
		OnEvict: func(fp hashing.Fingerprint, _ int64) {
			_ = t.Withdraw(holder, fp)
		},
	}
}

// ReportServed accumulates a node's deployment traffic split: how many
// objects/bytes arrived from peers versus from the registry.
func (t *Tracker) ReportServed(peerObjects int, peerBytes int64, registryObjects int, registryBytes int64) {
	t.peerObjects.Add(int64(peerObjects))
	t.peerBytes.Add(peerBytes)
	t.registryObjects.Add(int64(registryObjects))
	t.registryBytes.Add(registryBytes)
}

func holderIndex(hs []string, holder string) int {
	for i, h := range hs {
		if h == holder {
			return i
		}
	}
	return -1
}
