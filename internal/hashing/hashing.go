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
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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
	fingerprinted.Add(int64(len(data)))
	sum := md5.Sum(data)
	return Fingerprint(hex.EncodeToString(sum[:]))
}

// DigestBytes returns the SHA256 digest of data in Docker's
// "sha256:..." notation.
func DigestBytes(data []byte) Digest {
	digested.Add(int64(len(data)))
	sum := sha256.Sum256(data)
	return digestOf(sum[:])
}

// fingerprinted counts the bytes FingerprintBytes and every
// FingerprintWriter have hashed.
var fingerprinted atomic.Int64

// FingerprintedBytes is how many bytes FingerprintBytes and every
// FingerprintWriter have hashed in this process: the meter by which
// tests hold a deploy or a read to verifying each fetched byte once, as
// DigestedBytes holds a conversion to taking each digest once.
func FingerprintedBytes() int64 { return fingerprinted.Load() }

// digested counts the bytes DigestBytes and every DigestWriter have
// hashed.
var digested atomic.Int64

// DigestedBytes is how many bytes DigestBytes and every DigestWriter
// have hashed in this process: the meter by which tests hold a layer
// build or a conversion to taking each digest once.
func DigestedBytes() int64 { return digested.Load() }

// digestOf renders a SHA256 sum in Docker's notation.
func digestOf(sum []byte) Digest { return Digest("sha256:" + hex.EncodeToString(sum)) }

// DigestWriter computes the Digest of content written to it piece by
// piece, for content that is streamed rather than held.
type DigestWriter struct{ h hash.Hash }

// NewDigestWriter returns a DigestWriter with nothing written.
func NewDigestWriter() *DigestWriter { return &DigestWriter{h: sha256.New()} }

// Write adds p to the content; it never fails.
func (w *DigestWriter) Write(p []byte) (int, error) {
	digested.Add(int64(len(p)))
	return w.h.Write(p)
}

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
func (w *FingerprintWriter) Write(p []byte) (int, error) {
	fingerprinted.Add(int64(len(p)))
	return w.h.Write(p)
}

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
	mu   sync.Mutex
	byFP map[Fingerprint][]Verifier
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

// VerifierOf computes data's Verifier.
func VerifierOf(data []byte) Verifier { return sha256.Sum256(data) }

// Sum hashes data: the one pass over a content's bytes that addressing
// it takes.
func (r *Registry) Sum(data []byte) Sum { return r.SumVerified(data, VerifierOf(data)) }

// SumVerified is Sum of data whose Verifier v the caller has already
// computed with VerifierOf: only the fingerprint is left to hash.
func (r *Registry) SumVerified(data []byte, v Verifier) Sum {
	return Sum{fp: r.hasher.Fingerprint(data), v: v}
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
	return indexedID(s.fp, len(seen))
}

// SumAll is Sum of every item, computed on up to GOMAXPROCS goroutines
// — the CPU-bound part of addressing a batch.
func (r *Registry) SumAll(items [][]byte) []Sum {
	n := len(items)
	sums := make([]Sum, n)
	workers := min(runtime.GOMAXPROCS(0), n)
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

func indexedID(fp Fingerprint, i int) Fingerprint {
	if i == 0 {
		return fp
	}
	return Fingerprint(string(fp) + "-c" + strconv.Itoa(i))
}
