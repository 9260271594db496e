package cache

import (
	"fmt"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
)

// hookRecorder counts OnAdmit/OnEvict deliveries per fingerprint. It is
// safe for concurrent use, like a peer tracker.
type hookRecorder struct {
	mu      sync.Mutex
	admits  map[hashing.Fingerprint]int
	evicts  map[hashing.Fingerprint]int
	members map[hashing.Fingerprint]bool
}

func newHookRecorder() *hookRecorder {
	return &hookRecorder{
		admits:  make(map[hashing.Fingerprint]int),
		evicts:  make(map[hashing.Fingerprint]int),
		members: make(map[hashing.Fingerprint]bool),
	}
}

func (r *hookRecorder) hooks() Hooks {
	return Hooks{
		OnAdmit: func(fp hashing.Fingerprint, size int64) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.admits[fp]++
			r.members[fp] = true
		},
		OnEvict: func(fp hashing.Fingerprint, size int64) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.evicts[fp]++
			delete(r.members, fp)
		},
	}
}

// TestEvictionHooksFireExactlyOnce fills a bounded cache past capacity
// under both policies and checks every eviction delivered exactly one
// OnEvict, every insert exactly one OnAdmit, and that the recorder's
// mirrored membership matches the cache at the end — the invariant a
// peer tracker depends on for announce/withdraw.
func TestEvictionHooksFireExactlyOnce(t *testing.T) {
	for _, policy := range []Policy{FIFO, LRU} {
		t.Run(policy.String(), func(t *testing.T) {
			rec := newHookRecorder()
			c := mustNew(t, 64, policy)
			c.SetHooks(rec.hooks())

			var fps []hashing.Fingerprint
			for i := 0; i < 50; i++ {
				data := []byte(fmt.Sprintf("object %02d padpad", i)) // 16 B each
				fp := hashing.FingerprintBytes(data)
				fps = append(fps, fp)
				if _, err := c.Put(fp, data); err != nil {
					t.Fatal(err)
				}
			}
			// Duplicate puts are membership no-ops: no extra admits.
			for _, fp := range fps[len(fps)-2:] {
				if _, err := c.Put(fp, []byte("ignored")); err != nil {
					t.Fatal(err)
				}
			}

			rec.mu.Lock()
			defer rec.mu.Unlock()
			for _, fp := range fps {
				if rec.admits[fp] != 1 {
					t.Errorf("%s: admits[%s] = %d, want 1", policy, fp, rec.admits[fp])
				}
				if n := rec.evicts[fp]; n > 1 {
					t.Errorf("%s: evicts[%s] = %d, want ≤1", policy, fp, n)
				}
				if rec.members[fp] != c.Contains(fp) {
					t.Errorf("%s: mirrored membership of %s = %v, cache says %v",
						policy, fp, rec.members[fp], c.Contains(fp))
				}
			}
			var evicted int
			for _, n := range rec.evicts {
				evicted += n
			}
			if int64(evicted) != c.evictions.Value() {
				t.Errorf("%s: %d evict callbacks, cache counted %d evictions",
					policy, evicted, c.evictions.Value())
			}
			if evicted == 0 {
				t.Fatalf("%s: capacity pressure produced no evictions", policy)
			}
		})
	}
}

// TestClearFiresEvictHooks verifies the non-policy removal path also
// withdraws: a Clear delivers OnEvict exactly once per removed
// fingerprint, and a second Clear none.
func TestClearFiresEvictHooks(t *testing.T) {
	rec := newHookRecorder()
	c := mustNew(t, 0, LRU)
	c.SetHooks(rec.hooks())

	a, b := fpOf("clear me"), fpOf("clear me too")
	if _, err := c.Put(a, []byte("clear me")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(b, []byte("clear me too")); err != nil {
		t.Fatal(err)
	}
	c.Clear()
	c.Clear() // empty: no second callback

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.evicts[a] != 1 || rec.evicts[b] != 1 {
		t.Errorf("evicts = %d/%d, want 1/1", rec.evicts[a], rec.evicts[b])
	}
	if len(rec.members) != 0 {
		t.Errorf("mirrored membership not empty after clear: %v", rec.members)
	}
}

// TestEvictionHooksRaceWithPeerServes churns a bounded cache so entries
// evict continuously while concurrent readers serve the same entries
// through Peek (the peer server's read path), then checks the
// exactly-once withdraw invariant survived. Run under -race.
func TestEvictionHooksRaceWithPeerServes(t *testing.T) {
	for _, policy := range []Policy{FIFO, LRU} {
		t.Run(policy.String(), func(t *testing.T) {
			rec := newHookRecorder()
			c := mustNew(t, 256, policy)
			c.SetHooks(rec.hooks())

			const writers, servers, rounds = 4, 4, 200
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						data := []byte(fmt.Sprintf("writer %d object %03d", g, i%37))
						if _, err := c.Put(hashing.FingerprintBytes(data), data); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			for g := 0; g < servers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						data := []byte(fmt.Sprintf("writer %d object %03d", g%writers, i%37))
						fp := hashing.FingerprintBytes(data)
						// A peer serve of an entry that may be mid-eviction.
						if content, ok := c.Peek(fp); ok && len(content.Data()) == 0 {
							t.Errorf("peer serve of %s returned empty content", fp)
							return
						}
					}
				}(g)
			}
			wg.Wait()

			rec.mu.Lock()
			defer rec.mu.Unlock()
			var evicts int
			for fp, n := range rec.admits {
				// A fingerprint may cycle admit→evict→admit many times, but
				// the counts must balance exactly once per transition: what
				// is still cached has one unmatched admit, the rest none.
				want := n
				if c.Contains(fp) {
					want = n - 1
				}
				if rec.evicts[fp] != want {
					t.Errorf("%s: %d admits vs %d evicts (cached=%v)",
						fp, n, rec.evicts[fp], c.Contains(fp))
				}
			}
			for fp, n := range rec.evicts {
				evicts += n
				if rec.admits[fp] == 0 {
					t.Errorf("%s withdrawn without ever being announced", fp)
				}
			}
			if int64(evicts) != c.evictions.Value() {
				t.Errorf("%d evict callbacks, cache counted %d evictions", evicts, c.evictions.Value())
			}
		})
	}
}
