package shardreg

import (
	"sort"
	"strconv"

	"github.com/gear-image/gear/internal/hashing"
)

// Ring is the consistent-hash placement function of the shard tier.
// Every shard contributes vnodes points on a 64-bit hash circle;
// a fingerprint lands on the first point clockwise of its own hash, and
// its replicas on the next points owned by distinct shards. Virtual
// nodes smooth the arc ownership so load splits near-evenly even at
// small shard counts, and a ring of one more member moves only the arcs
// the new shard takes — the consistent-hash delta.
//
// Placement is a pure function of (member set, vnodes): two rings built
// from the same members agree on every lookup. A Cluster builds its
// ring in New and only reads it after, so its routers share it without
// a lock.
type Ring struct {
	vnodes int
	// points is the circle, sorted by hash. Ties are broken by shard id
	// so the ring is deterministic even across hash collisions.
	points []ringPoint
	shards []string // sorted member ids
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing returns an empty ring with the given virtual-node count per
// shard (values < 1 get DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes}
}

// hash64 is finalized FNV-1a, the ring's point and key hash. Raw FNV-1a
// is unusable as a circle position: a trailing-byte difference only
// reaches the high bits through the final multiply, so inputs that
// differ in their last few characters — exactly the shape of virtual
// node labels "shard#0".."shard#63" — land within ~2^48 of each other
// and a shard's vnodes collapse into a handful of clumps. The mix
// (murmur3's 64-bit finalizer) avalanches every input bit across the
// word, which is what actually spreads the points.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the murmur3 64-bit finalizer: a bijective avalanche, so it
// cannot introduce collisions, only spread them.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pointHash is the circle position of shard's v-th virtual node.
func pointHash(shard string, v int) uint64 {
	return hash64(shard + "#" + strconv.Itoa(v))
}

// Add inserts a shard's virtual nodes. Adding a member twice is a no-op.
func (r *Ring) Add(shard string) {
	if r.Has(shard) {
		return
	}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: pointHash(shard, v), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	r.shards = append(r.shards, shard)
	sort.Strings(r.shards)
}

// Has reports ring membership.
func (r *Ring) Has(shard string) bool {
	i := sort.SearchStrings(r.shards, shard)
	return i < len(r.shards) && r.shards[i] == shard
}

// Shards lists members in sorted order.
func (r *Ring) Shards() []string {
	out := make([]string, len(r.shards))
	copy(out, r.shards)
	return out
}

// Lookup returns the n distinct shards responsible for fp, in replica
// order: the shard owning the first point clockwise of the key is the
// primary, and each further distinct shard encountered walking the
// circle is the next replica. n is clamped to the member count; an empty
// ring returns nil.
func (r *Ring) Lookup(fp hashing.Fingerprint, n int) []string {
	if len(r.shards) == 0 || n < 1 {
		return nil
	}
	if n > len(r.shards) {
		n = len(r.shards)
	}
	key := hash64(string(fp))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		out = append(out, p.shard)
	}
	return out
}

// OwnedShare returns each shard's fraction of the hash circle (primary
// ownership only) — the balance the virtual nodes buy. Shares sum to 1.
func (r *Ring) OwnedShare() map[string]float64 {
	out := make(map[string]float64, len(r.shards))
	if len(r.points) == 0 {
		return out
	}
	if len(r.points) == 1 {
		out[r.points[0].shard] = 1
		return out
	}
	// The arc ending at point i belongs to point i's shard; uint64
	// subtraction wraps, which is exactly the circle's modular distance.
	const whole = float64(1<<63) * 2 // 2^64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		out[p.shard] += float64(p.hash-prev) / whole
		prev = p.hash
	}
	return out
}
