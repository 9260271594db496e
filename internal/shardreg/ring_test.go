package shardreg

import (
	"fmt"
	"math"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
)

func ringShards(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard%02d", i)
	}
	return out
}

func ringFps(n int) []hashing.Fingerprint {
	out := make([]hashing.Fingerprint, n)
	for i := range out {
		out[i] = hashing.FingerprintBytes([]byte(fmt.Sprintf("object %d", i)))
	}
	return out
}

// Placement must be a pure function of the member set: two rings built
// from the same members (in different insertion orders) agree on every
// lookup.
func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing(0)
	b := NewRing(0)
	for _, id := range ringShards(5) {
		a.Add(id)
	}
	for i := 4; i >= 0; i-- {
		b.Add(ringShards(5)[i])
	}
	for _, fp := range ringFps(200) {
		ga, gb := a.Lookup(fp, 3), b.Lookup(fp, 3)
		if len(ga) != 3 || len(gb) != 3 {
			t.Fatalf("Lookup(%s, 3) = %v / %v", fp, ga, gb)
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("rings disagree on %s: %v vs %v", fp, ga, gb)
			}
		}
	}
}

func TestRingLookupDistinctReplicas(t *testing.T) {
	r := NewRing(0)
	for _, id := range ringShards(4) {
		r.Add(id)
	}
	for _, fp := range ringFps(100) {
		got := r.Lookup(fp, 3)
		seen := map[string]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("Lookup(%s, 3) repeats shard %s: %v", fp, id, got)
			}
			seen[id] = true
		}
	}
	// n past the member count clamps.
	if got := r.Lookup(ringFps(1)[0], 99); len(got) != 4 {
		t.Fatalf("Lookup clamped to %d shards, want 4", len(got))
	}
}

func TestRingEmptyAndBadN(t *testing.T) {
	r := NewRing(0)
	fp := ringFps(1)[0]
	if got := r.Lookup(fp, 1); got != nil {
		t.Fatalf("empty ring Lookup = %v, want nil", got)
	}
	r.Add("only")
	if got := r.Lookup(fp, 0); got != nil {
		t.Fatalf("Lookup(n=0) = %v, want nil", got)
	}
}

func TestRingMembership(t *testing.T) {
	r := NewRing(0)
	r.Add("a")
	r.Add("b")
	r.Add("a") // duplicate add is a no-op
	if !r.Has("a") || r.Has("zzz") {
		t.Fatal("Has answers wrong")
	}
	if got := r.Shards(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Shards = %v, want [a b]", got)
	}
	if len(r.points) != 2*r.vnodes {
		t.Fatalf("%d points, want %d", len(r.points), 2*r.vnodes)
	}
}

// Virtual nodes must keep primary ownership near-even: with the default
// point count no shard of 4 should own a grossly skewed hash-space
// share, and the shares must sum to 1.
func TestRingOwnedShareBalance(t *testing.T) {
	r := NewRing(0)
	for _, id := range ringShards(4) {
		r.Add(id)
	}
	share := r.OwnedShare()
	var sum float64
	for id, s := range share {
		sum += s
		if s < 0.10 || s > 0.45 {
			t.Errorf("shard %s owns %.3f of the circle, want near 0.25", id, s)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}

	single := NewRing(1)
	single.Add("only")
	if got := single.OwnedShare()["only"]; got != 1 {
		t.Fatalf("single-shard share = %v, want 1", got)
	}
}

// A ring of one more member must move only ~1/(S+1) of primaries — the
// consistent-hash delta, not a rehash-everything.
func TestRingMembershipDelta(t *testing.T) {
	r := NewRing(0)
	for _, id := range ringShards(4) {
		r.Add(id)
	}
	fps := ringFps(1000)
	before := make(map[hashing.Fingerprint]string, len(fps))
	for _, fp := range fps {
		before[fp] = r.Lookup(fp, 1)[0]
	}
	r.Add("shard04")
	moved := 0
	for _, fp := range fps {
		after := r.Lookup(fp, 1)[0]
		if after != before[fp] {
			if after != "shard04" {
				t.Fatalf("%s moved %s -> %s, but only the new shard may gain primaries", fp, before[fp], after)
			}
			moved++
		}
	}
	if moved == 0 || moved > 400 {
		t.Fatalf("adding 1 of 5 shards moved %d/1000 primaries, want ~200", moved)
	}
}
