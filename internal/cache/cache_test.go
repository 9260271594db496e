package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

func fpOf(s string) hashing.Fingerprint { return hashing.FingerprintBytes([]byte(s)) }

func mustNew(t *testing.T, capacity int64, p Policy) *Cache {
	t.Helper()
	c, err := New(capacity, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(10, Policy(0)); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("err = %v, want ErrBadPolicy", err)
	}
	if _, err := New(-1, FIFO); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || LRU.String() != "lru" {
		t.Error("policy names wrong")
	}
	if Policy(7).String() != "Policy(7)" {
		t.Error("unknown policy name wrong")
	}
}

func TestPutGet(t *testing.T) {
	c := mustNew(t, 0, LRU)
	data := []byte("file content")
	fp := fpOf("k")
	content, err := c.Put(fp, data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(fp)
	if !ok || got != content {
		t.Error("Get did not return the shared content")
	}
	if string(got.Data()) != "file content" {
		t.Error("content mismatch")
	}
	if _, ok := c.Get(fpOf("missing")); ok {
		t.Error("Get(missing) = true")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Objects != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %f", s.HitRatio())
	}
}

func TestPutIdempotent(t *testing.T) {
	c := mustNew(t, 0, FIFO)
	fp := fpOf("k")
	a, err := c.Put(fp, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Put(fp, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("duplicate Put created a second content")
	}
	if s := c.Stats(); s.Objects != 1 || s.UsedBytes != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPutValidatesFingerprint(t *testing.T) {
	c := mustNew(t, 0, FIFO)
	if _, err := c.Put("bogus", []byte("x")); !errors.Is(err, hashing.ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestPutRejectsOversized(t *testing.T) {
	c := mustNew(t, 4, FIFO)
	if _, err := c.Put(fpOf("big"), []byte("12345")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestFIFOEviction(t *testing.T) {
	c := mustNew(t, 10, FIFO)
	for i := 0; i < 3; i++ {
		if _, err := c.Put(fpOf(fmt.Sprint(i)), []byte("1234")); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 10, each entry 4 bytes: third insert must evict the first.
	if c.Contains(fpOf("0")) {
		t.Error("FIFO kept the oldest entry")
	}
	if !c.Contains(fpOf("1")) || !c.Contains(fpOf("2")) {
		t.Error("FIFO evicted the wrong entry")
	}
	if s := c.Stats(); s.Evictions != 1 || s.UsedBytes != 8 {
		t.Errorf("stats = %+v", s)
	}
}

// TestSharedRegistryDoesNotShareOccupancy: two bounded caches publishing
// into one registry (every daemon of a benchreport -metrics run does)
// each evict on their own bytes; the shared cache.bytes gauge is their
// sum and must not be read back as either's occupancy.
func TestSharedRegistryDoesNotShareOccupancy(t *testing.T) {
	reg := telemetry.NewRegistry()
	var caches [2]*Cache
	for i := range caches {
		c, err := NewTelemetered(10, FIFO, reg)
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = c
	}
	for _, c := range caches {
		for i := 0; i < 2; i++ {
			if _, err := c.Put(fpOf(fmt.Sprint(i)), []byte("1234")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, c := range caches {
		if s := c.Stats(); s.Objects != 2 || s.UsedBytes != 8 {
			t.Errorf("cache %d: stats = %+v, want 2 objects / 8 bytes (8 of 10 fits)", i, s)
		}
	}
	if got := reg.Snapshot(); got.Gauge("cache.bytes") != 16 || got.Counter("cache.evictions") != 0 {
		t.Errorf("shared registry: cache.bytes = %d, cache.evictions = %d, want 16 and 0",
			got.Gauge("cache.bytes"), got.Counter("cache.evictions"))
	}
}

func TestFIFOIgnoresAccessOrder(t *testing.T) {
	c := mustNew(t, 10, FIFO)
	if _, err := c.Put(fpOf("0"), []byte("1234")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(fpOf("1"), []byte("1234")); err != nil {
		t.Fatal(err)
	}
	c.Get(fpOf("0")) // access does not rescue under FIFO
	if _, err := c.Put(fpOf("2"), []byte("1234")); err != nil {
		t.Fatal(err)
	}
	if c.Contains(fpOf("0")) {
		t.Error("FIFO honored access recency")
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, 10, LRU)
	if _, err := c.Put(fpOf("0"), []byte("1234")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(fpOf("1"), []byte("1234")); err != nil {
		t.Fatal(err)
	}
	c.Get(fpOf("0")) // refresh 0; 1 becomes LRU victim
	if _, err := c.Put(fpOf("2"), []byte("1234")); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(fpOf("0")) {
		t.Error("LRU evicted the recently used entry")
	}
	if c.Contains(fpOf("1")) {
		t.Error("LRU kept the least recently used entry")
	}
}

func TestPinnedEntriesSurviveEviction(t *testing.T) {
	c := mustNew(t, 8, FIFO)
	content, err := c.Put(fpOf("pinned"), []byte("1234"))
	if err != nil {
		t.Fatal(err)
	}
	// Hard link it into an index — the paper's "linked to Gear indexes".
	f := vfs.New()
	if err := f.PutContent("/index/file", content, 0o644); err == nil {
		t.Fatal("expected missing parent error")
	}
	if err := f.MkdirAll("/index", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.PutContent("/index/file", content, 0o644); err != nil {
		t.Fatal(err)
	}
	// Fill past capacity; pinned entry must survive.
	if _, err := c.Put(fpOf("a"), []byte("1234")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(fpOf("b"), []byte("1234")); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(fpOf("pinned")) {
		t.Error("pinned entry evicted")
	}
	// Unlink and trigger another eviction round: now it may go.
	if err := f.Remove("/index/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(fpOf("c"), []byte("1234")); err != nil {
		t.Fatal(err)
	}
	if c.Contains(fpOf("pinned")) {
		t.Error("unpinned entry not evicted under pressure")
	}
}

func TestDrop(t *testing.T) {
	c := mustNew(t, 0, FIFO)
	fp := fpOf("k")
	if _, err := c.Put(fp, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !c.Drop(fp) {
		t.Error("Drop(existing) = false")
	}
	if c.Drop(fp) {
		t.Error("Drop(missing) = true")
	}
	if s := c.Stats(); s.Objects != 0 || s.UsedBytes != 0 || s.Evictions != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestClear(t *testing.T) {
	c := mustNew(t, 0, LRU)
	for i := 0; i < 5; i++ {
		if _, err := c.Put(fpOf(fmt.Sprint(i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c.Clear()
	s := c.Stats()
	if s.Objects != 0 || s.UsedBytes != 0 {
		t.Errorf("stats after clear = %+v", s)
	}
	if c.Contains(fpOf("0")) {
		t.Error("entry survived Clear")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := mustNew(t, 1<<20, LRU)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("obj-%d", i%50)
				if i%2 == 0 {
					if _, err := c.Put(fpOf(key), []byte(key)); err != nil {
						t.Error(err)
						return
					}
				} else {
					c.Get(fpOf(key))
				}
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Objects != 25 {
		t.Errorf("objects = %d, want 25 (only even iterations insert)", s.Objects)
	}
}

// Property: UsedBytes always equals the sum of cached entry sizes, and
// never exceeds capacity while no entry is pinned.
func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := FIFO
		if seed%2 == 0 {
			policy = LRU
		}
		c, err := New(100, policy)
		if err != nil {
			return false
		}
		live := make(map[hashing.Fingerprint]int)
		for op := 0; op < 200; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(30))
			fp := fpOf(key)
			switch rng.Intn(3) {
			case 0:
				data := make([]byte, 1+rng.Intn(20))
				if _, err := c.Put(fp, data); err != nil {
					return false
				}
				live[fp] = len(data)
			case 1:
				c.Get(fp)
			default:
				c.Drop(fp)
				delete(live, fp)
			}
			s := c.Stats()
			if s.UsedBytes > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCacheGet(b *testing.B) {
	c, err := New(0, LRU)
	if err != nil {
		b.Fatal(err)
	}
	fps := make([]hashing.Fingerprint, 1000)
	for i := range fps {
		fps[i] = fpOf(fmt.Sprint(i))
		if _, err := c.Put(fps[i], []byte("data")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(fps[i%len(fps)])
	}
}
