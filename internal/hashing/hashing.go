// Package hashing provides the content-addressing primitives of the Gear
// reproduction: MD5 fingerprints for Gear files (§III-B of the paper),
// SHA256 digests for Docker layers and manifests (§II-A), and the
// collision-detection registry the paper describes for deployments where
// MD5's collision resistance is not trusted.
package hashing

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"strconv"
	"sync"
)

// Fingerprint identifies a Gear file by the MD5 hash of its content,
// rendered as 32 lowercase hex digits. The paper names Gear files by
// fingerprint in both the registry pool and the local shared cache.
type Fingerprint string

// Digest identifies a Docker layer or manifest by the SHA256 hash of its
// (compressed) content, rendered as "sha256:<64 hex digits>".
type Digest string

// FingerprintBytes returns the MD5 fingerprint of data.
func FingerprintBytes(data []byte) Fingerprint {
	sum := md5.Sum(data)
	return Fingerprint(hex.EncodeToString(sum[:]))
}

// DigestBytes returns the SHA256 digest of data in Docker's
// "sha256:..." notation.
func DigestBytes(data []byte) Digest {
	sum := sha256.Sum256(data)
	return digestOf(sum[:])
}

// digestOf renders a SHA256 sum in Docker's notation.
func digestOf(sum []byte) Digest { return Digest("sha256:" + hex.EncodeToString(sum)) }

// DigestWriter computes the Digest of content written to it piece by
// piece, for content that is streamed rather than held.
type DigestWriter struct{ h hash.Hash }

// NewDigestWriter returns a DigestWriter with nothing written.
func NewDigestWriter() *DigestWriter { return &DigestWriter{h: sha256.New()} }

// Write adds p to the content; it never fails.
func (w *DigestWriter) Write(p []byte) (int, error) { return w.h.Write(p) }

// Digest returns the digest of what has been written: DigestBytes of it.
func (w *DigestWriter) Digest() Digest {
	var sum [sha256.Size]byte
	return digestOf(w.h.Sum(sum[:0]))
}

// FingerprintWriter computes the MD5 Fingerprint of content written to
// it piece by piece, as DigestWriter does the digest.
type FingerprintWriter struct{ h hash.Hash }

// NewFingerprintWriter returns a FingerprintWriter with nothing written.
func NewFingerprintWriter() *FingerprintWriter { return &FingerprintWriter{h: md5.New()} }

// Write adds p to the content; it never fails.
func (w *FingerprintWriter) Write(p []byte) (int, error) { return w.h.Write(p) }

// Fingerprint returns the fingerprint of what has been written:
// FingerprintBytes of it.
func (w *FingerprintWriter) Fingerprint() Fingerprint {
	var sum [md5.Size]byte
	return Fingerprint(hex.EncodeToString(w.h.Sum(sum[:0])))
}

// ErrMalformed reports a fingerprint or digest that fails validation.
var ErrMalformed = errors.New("malformed content address")

// Valid reports whether f is a well-formed MD5 fingerprint or a unique ID
// assigned by a Registry after a collision (see Registry.Assign).
func (f Fingerprint) Valid() bool { return validFingerprint(f) }

// ValidFingerprint is Fingerprint(b).Valid() without the string, for
// bytes that may turn out not to be a fingerprint.
func ValidFingerprint(b []byte) bool { return validFingerprint(b) }

func validFingerprint[S ~string | ~[]byte](s S) bool {
	if len(s) == 32 {
		return isHex(s)
	}
	// Collision fallback IDs look like "<32 hex>-cN".
	if len(s) > 34 && s[32] == '-' && s[33] == 'c' {
		if !isHex(s[:32]) {
			return false
		}
		_, err := strconv.Atoi(string(s[34:]))
		return err == nil
	}
	return false
}

// Validate returns ErrMalformed (wrapped with the value) if f is invalid.
func (f Fingerprint) Validate() error {
	if !f.Valid() {
		return fmt.Errorf("fingerprint %q: %w", string(f), ErrMalformed)
	}
	return nil
}

// Valid reports whether d is a well-formed "sha256:..." digest.
func (d Digest) Valid() bool {
	s := string(d)
	const prefix = "sha256:"
	if len(s) != len(prefix)+64 || s[:len(prefix)] != prefix {
		return false
	}
	return isHex(s[len(prefix):])
}

// Validate returns ErrMalformed (wrapped with the value) if d is invalid.
func (d Digest) Validate() error {
	if !d.Valid() {
		return fmt.Errorf("digest %q: %w", string(d), ErrMalformed)
	}
	return nil
}

func isHex[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Hasher computes fingerprints. The production hasher is MD5; tests inject
// deliberately weak hashers to force collisions and prove the registry's
// fallback preserves correctness, as §III-B argues it must.
type Hasher interface {
	// Fingerprint returns the content address of data.
	Fingerprint(data []byte) Fingerprint
}

// MD5 is the production Hasher.
type MD5 struct{}

var _ Hasher = MD5{}

// Fingerprint implements Hasher using crypto/md5.
func (MD5) Fingerprint(data []byte) Fingerprint { return FingerprintBytes(data) }

// Verifier is the strong digest the registry keeps per assigned content
// in place of the content itself: two inputs with equal fingerprints are
// a true duplicate iff their verifiers match. SHA256 collisions would be
// required to confuse two distinct contents, so collision handling keeps
// the byte-for-byte guarantee while resident state stays O(entries)
// instead of O(total corpus bytes). It is comparable, so whoever holds
// contents can key them by it and never mistake a colliding pair.
type Verifier [sha256.Size]byte

// Sum is everything a Registry needs to know about one content to
// address it: its fingerprint under the registry's hasher and its
// Verifier. It is computed where the content's bytes are in hand
// (Registry.Sum) and may be assigned later, or many times, without
// the bytes (Registry.AssignSum): the content is hashed once.
type Sum struct {
	fp Fingerprint
	v  Verifier
}

// Verifier returns the content's strong digest.
func (s Sum) Verifier() Verifier { return s.v }

// registryShards is the number of independently locked shards. Shards
// are selected by fingerprint prefix, so load spreads evenly under the
// production hasher and contention is per-prefix, not global.
const registryShards = 64

// registryShard holds the entries for one fingerprint-prefix slice of
// the space. Each fingerprint maps to the verifiers of the contents seen
// under it, in assignment order: index 0 is the bare fingerprint, later
// entries carry "-cN" suffixes.
type registryShard struct {
	mu         sync.Mutex
	byFP       map[Fingerprint][]Verifier
	collisions int
}

// Registry assigns stable content addresses with collision detection.
// On a fingerprint match it compares strong content digests; a true
// duplicate reuses the existing address, while a collision (same hash,
// different bytes) is assigned a unique ID of the form "<fp>-cN". The
// paper's design (§III-B) notes this disables dedup for the colliding
// files without compromising correctness.
//
// The registry retains only a fixed-size verification digest per entry —
// never the content — so its resident memory is independent of payload
// sizes, and the fingerprint space is sharded by prefix so concurrent
// assignment does not serialize on one lock.
//
// A Registry is safe for concurrent use.
type Registry struct {
	hasher Hasher
	shards [registryShards]registryShard
}

// NewRegistry returns a Registry using hasher (MD5{} if nil).
func NewRegistry(hasher Hasher) *Registry {
	if hasher == nil {
		hasher = MD5{}
	}
	r := &Registry{hasher: hasher}
	for i := range r.shards {
		r.shards[i].byFP = make(map[Fingerprint][]Verifier)
	}
	return r
}

// shardIndexOf maps a fingerprint to its shard by prefix. Weak test
// hashers may emit short or non-hex fingerprints, so the fold is
// defensive.
func shardIndexOf(fp Fingerprint) uint32 {
	var h uint32
	for i := 0; i < len(fp) && i < 2; i++ {
		h = h*31 + uint32(fp[i])
	}
	return h % registryShards
}

func (r *Registry) shardOf(fp Fingerprint) *registryShard {
	return &r.shards[shardIndexOf(fp)]
}

// Sum hashes data: the one pass over a content's bytes that addressing
// it takes.
func (r *Registry) Sum(data []byte) Sum {
	return Sum{fp: r.hasher.Fingerprint(data), v: sha256.Sum256(data)}
}

// Assign returns the content address for data, detecting collisions.
// Identical contents always receive identical addresses; distinct contents
// always receive distinct addresses, even under a colliding hasher.
func (r *Registry) Assign(data []byte) Fingerprint {
	return r.AssignSum(r.Sum(data))
}

// AssignSum is Assign for a content hashed earlier: it resolves s,
// which must come from r.Sum, to the content's collision-safe ID,
// recording the verifier under the fingerprint.
func (r *Registry) AssignSum(s Sum) Fingerprint {
	sh := r.shardOf(s.fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	seen := sh.byFP[s.fp]
	for i, prev := range seen {
		if prev == s.v {
			return indexedID(s.fp, i)
		}
	}
	sh.byFP[s.fp] = append(seen, s.v)
	if len(seen) > 0 {
		sh.collisions++
	}
	return indexedID(s.fp, len(seen))
}

// SumAll is Sum of every item, computed on up to workers goroutines —
// the CPU-bound part of addressing a batch.
func (r *Registry) SumAll(items [][]byte, workers int) []Sum {
	n := len(items)
	sums := make([]Sum, n)
	workers = min(workers, n)
	if workers <= 1 {
		for i, data := range items {
			sums[i] = r.Sum(data)
		}
		return sums
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// workers <= n, so no range is empty.
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				sums[i] = r.Sum(items[i])
			}
		}()
	}
	wg.Wait()
	return sums
}

// AssignAll assigns content addresses to every item using up to workers
// goroutines for the hash computations (SumAll) and then for resolving
// the collision IDs (AssignSums). The returned addresses are
// bit-identical to calling Assign on each item in order, for any worker
// count.
func (r *Registry) AssignAll(items [][]byte, workers int) []Fingerprint {
	return r.AssignSums(r.SumAll(items, workers), workers)
}

// AssignSums is AssignSum of every sum, resolved per shard, in input
// order within each shard, on up to workers goroutines. The returned
// addresses are bit-identical to calling AssignSum on each in order, for
// any worker count: "-cN" suffixes depend only on the order collisions
// are *assigned per fingerprint*, a fingerprint never spans shards, and
// each shard assigns its items in input order — so no global
// serialization point remains.
func (r *Registry) AssignSums(sums []Sum, workers int) []Fingerprint {
	n := len(sums)
	if n == 0 {
		return nil
	}
	fps := make([]Fingerprint, n)

	// Bucket item indices by shard with a counting sort (no per-shard
	// slice allocations), then assign shard-by-shard. Within a shard,
	// items keep input order, which pins the "-cN" numbering.
	var counts [registryShards]int
	shardIdx := make([]uint8, n)
	for i, s := range sums {
		si := uint8(shardIndexOf(s.fp))
		shardIdx[i] = si
		counts[si]++
	}
	var offsets [registryShards]int
	total := 0
	for s := 0; s < registryShards; s++ {
		offsets[s] = total
		total += counts[s]
	}
	order := make([]int32, n)
	next := offsets
	for i := 0; i < n; i++ {
		s := shardIdx[i]
		order[next[s]] = int32(i)
		next[s]++
	}

	type run struct{ lo, hi int }
	runs := make([]run, 0, registryShards)
	for s := 0; s < registryShards; s++ {
		if counts[s] > 0 {
			runs = append(runs, run{offsets[s], offsets[s] + counts[s]})
		}
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	if workers <= 1 {
		for _, i := range order {
			fps[i] = r.AssignSum(sums[i])
		}
		return fps
	}
	// Shards are independent: fan each populated shard's run out to the
	// pool. Assignment within a run stays in input order.
	var wg sync.WaitGroup
	runCh := make(chan run, len(runs))
	for _, rn := range runs {
		runCh <- rn
	}
	close(runCh)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rn := range runCh {
				for _, i := range order[rn.lo:rn.hi] {
					fps[i] = r.AssignSum(sums[i])
				}
			}
		}()
	}
	wg.Wait()
	return fps
}

// Collisions returns how many fallback IDs have been assigned.
func (r *Registry) Collisions() int {
	total := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		total += s.collisions
		s.mu.Unlock()
	}
	return total
}

// Entries returns how many distinct contents the registry has assigned
// addresses to. Each entry costs a fixed-size verifier digest, so
// Entries bounds resident memory regardless of payload sizes.
func (r *Registry) Entries() int {
	total := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, seen := range s.byFP {
			total += len(seen)
		}
		s.mu.Unlock()
	}
	return total
}

func indexedID(fp Fingerprint, i int) Fingerprint {
	if i == 0 {
		return fp
	}
	return Fingerprint(string(fp) + "-c" + strconv.Itoa(i))
}

// CollisionProbability returns the birthday-paradox bound from the paper's
// equation (1): p <= n(n-1)/2 * 2^-m for n files under an m-bit hash.
func CollisionProbability(n float64, bits int) float64 {
	p := n * (n - 1) / 2
	for i := 0; i < bits; i++ {
		p /= 2
	}
	return p
}
