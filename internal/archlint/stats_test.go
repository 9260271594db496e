package archlint

import (
	"go/types"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Rule: counters live in a telemetry registry and are read there
// (DESIGN.md, "Observability"). A struct type declared outside the
// telemetry package whose name ends in Stats, exported or not, at any
// scope (a function body's too; an alias declares no type), needs a
// "file:Name" line in the stats allowlist saying why it stays, and a
// line whose type is gone fails. A component
// has one constructor and one snapshot: a New…WithTelemetry function or
// a StatsSnapshot function or method is a second way in, except in the
// Gear registry, whose StatsSnapshot the benchmark reads until it moves
// to Snapshot (ROADMAP item 2(a)). The whole module is in scope, the
// benchmark included.

const statsAllowlist = "scripts/stats_allowlist.txt"

// statsExempt are the directories the rule leaves alone: where Stats
// may be declared, and where a StatsSnapshot twin may stay.
type statsExempt struct{ telemetry, twin string }

var repoStatsExempt = statsExempt{telemetry: "internal/telemetry", twin: "internal/gearregistry"}

func TestStatsStructsAreAllowlisted(t *testing.T) {
	for _, msg := range statsLint(repoModule(t), repoStatsExempt, readAllowlist(t, repoRoot(t), statsAllowlist)) {
		t.Error(msg)
	}
}

func TestStatsFixtures(t *testing.T) {
	ex := statsExempt{telemetry: "internal/telemetry", twin: "internal/gearregistry"}
	for name, want := range map[string][]string{
		"stats_trip.txtar": {
			"a/a.go:CacheStats: a Stats struct outside",
			"a/a.go:NewCacheWithTelemetry: a second constructor",
			"a/a.go:StatsSnapshot: a second constructor",
			"allow.txt:1: a/a.go:GoneStats: no such Stats struct",
		},
		"stats_pass.txtar": nil,
	} {
		dir := fixture(t, name)
		expect(t, name, statsLint(load(t, dir), ex, readAllowlist(t, dir, "allow.txt")), want)
	}
}

var twinName = regexp.MustCompile(`^New[A-Za-z0-9_]*WithTelemetry$`)

// statsLint returns one message per Stats struct without a line, per
// line without its struct, and per second constructor or snapshot.
func statsLint(m *module, ex statsExempt, allow []allowLine) []string {
	var msgs []string
	found := map[string]bool{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Defs {
			if obj == nil {
				continue
			}
			key := m.rel(id.Pos()) + ":" + id.Name
			switch obj := obj.(type) {
			case *types.TypeName:
				if _, ok := obj.Type().Underlying().(*types.Struct); !ok || obj.IsAlias() || !strings.HasSuffix(id.Name, "Stats") || within(p.dir, ex.telemetry) {
					continue
				}
				found[key] = true
			case *types.Func:
				if within(p.dir, ex.twin) || !(id.Name == "StatsSnapshot" || obj.Type().(*types.Signature).Recv() == nil && twinName.MatchString(id.Name)) {
					continue
				}
				msgs = append(msgs, key+": a second constructor or snapshot; fold it into New, and answer Snapshot() only")
			}
		}
	}
	listed := map[string]bool{}
	for _, l := range allow {
		listed[l.key] = true
		if !found[l.key] {
			msgs = append(msgs, l.at+": "+l.key+": no such Stats struct; delete the line")
		}
	}
	for key := range found {
		if !listed[key] {
			msgs = append(msgs, key+": a Stats struct outside internal/telemetry; publish its counters into a telemetry.Registry, or allowlist the view in "+statsAllowlist)
		}
	}
	sort.Strings(msgs)
	return msgs
}
