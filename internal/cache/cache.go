// Package cache implements the first level of Gear's three-level storage
// structure (§III-D1 of the paper): a local, content-addressed pool of
// Gear files shared by every Gear image and container on a client.
//
// Files enter the cache when they are downloaded from the Gear Registry
// (or extracted by a commit) and are hard-linked into container indexes.
// Per the paper, "users can decide how much storage it can occupy and can
// apply replacement algorithms on it, such as FIFO or LRU. Files that are
// not linked to Gear indexes are candidates for replacement" — the link
// count on the shared content is the pin.
package cache

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
	"github.com/gear-image/gear/internal/vfs"
)

// Policy selects the replacement algorithm.
type Policy int

// Replacement policies from §III-D1.
const (
	FIFO Policy = iota + 1
	LRU
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LRU:
		return "lru"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Errors returned by cache operations.
var (
	ErrBadPolicy = errors.New("unknown replacement policy")
	ErrTooLarge  = errors.New("object larger than cache capacity")
)

type entry struct {
	fp      hashing.Fingerprint
	content *vfs.Content
	elem    *list.Element
}

// Hooks observe cache membership transitions. Peer distribution wires
// them to a tracker: OnAdmit announces a newly cached file as shareable,
// OnEvict withdraws it. Hooks run outside the cache lock (so they may
// take their own locks or call back into the cache) and fire exactly
// once per transition: OnAdmit when a fingerprint enters the cache,
// OnEvict whenever one leaves — policy eviction, Drop, or Clear.
//
// Because hooks fire after the lock is released, a concurrent admit and
// evict of the same fingerprint may deliver their callbacks out of
// order; consumers that mirror membership (trackers) must tolerate a
// briefly stale view, which peer fetch paths already do by verifying
// and falling back.
type Hooks struct {
	OnAdmit func(fp hashing.Fingerprint, size int64)
	OnEvict func(fp hashing.Fingerprint, size int64)
}

// Cache is the shared Gear file cache. It is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int64 // bytes; 0 means unlimited
	policy   Policy
	entries  map[hashing.Fingerprint]*entry
	order    *list.List // front = next eviction candidate
	hooks    Hooks
	// used is the bytes this cache holds. Eviction decides on it, never
	// on the byte gauge: in a shared registry the gauge sums every cache
	// publishing there, and a bounded cache reading it back would evict
	// to make room for its neighbours' bytes.
	used int64

	// Telemetry handles are the counters' only storage, read through
	// the registry they are published into, so a shared registry sees
	// cache traffic live. The byte gauge (occupancy) is only mutated
	// under mu.
	objects   *telemetry.Gauge
	bytes     *telemetry.Gauge
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
}

// New returns a cache with the given byte capacity (0 = unlimited) and
// replacement policy, publishing into a private telemetry registry.
func New(capacity int64, policy Policy) (*Cache, error) {
	return NewTelemetered(capacity, policy, nil)
}

// NewTelemetered is New publishing cache.* metrics into reg (nil gets
// live unregistered handles, making telemetry impossible to forget).
func NewTelemetered(capacity int64, policy Policy, reg *telemetry.Registry) (*Cache, error) {
	if policy != FIFO && policy != LRU {
		return nil, fmt.Errorf("cache: policy %d: %w", policy, ErrBadPolicy)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity: %w", ErrTooLarge)
	}
	c := &Cache{
		capacity:  capacity,
		policy:    policy,
		entries:   make(map[hashing.Fingerprint]*entry),
		order:     list.New(),
		objects:   reg.Gauge("cache.objects"),
		bytes:     reg.Gauge("cache.bytes"),
		hits:      reg.Counter("cache.hits"),
		misses:    reg.Counter("cache.misses"),
		evictions: reg.Counter("cache.evictions"),
	}
	reg.Gauge("cache.capacity").Set(capacity)
	return c, nil
}

// SetHooks installs membership hooks. Install them before the cache
// sees traffic; SetHooks is not synchronized against in-flight
// operations.
func (c *Cache) SetHooks(h Hooks) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hooks = h
}

// Get returns the shared content for fp if cached. Under LRU a hit
// refreshes the entry's position.
func (c *Cache) Get(fp hashing.Fingerprint) (*vfs.Content, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	if c.policy == LRU {
		c.order.MoveToBack(e.elem)
	}
	return e.content, true
}

// Contains reports whether fp is cached without affecting recency.
func (c *Cache) Contains(fp hashing.Fingerprint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[fp]
	return ok
}

// Peek returns the shared content for fp without touching hit/miss
// stats or recency. Peer serves read through Peek so exporting the
// cache to the cluster does not distort the owner's replacement
// decisions or cache-effectiveness accounting.
func (c *Cache) Peek(fp hashing.Fingerprint) (*vfs.Content, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if !ok {
		return nil, false
	}
	return e.content, true
}

// Put inserts data under fp and returns the shared content (existing
// content if fp was already cached). Inserting may evict unpinned
// entries; if the cache cannot make room because every entry is pinned
// by a live hard link, the insert still succeeds and the cache runs
// over capacity — correctness over strictness, matching how a filesystem
// cannot reclaim a file that is still linked.
func (c *Cache) Put(fp hashing.Fingerprint, data []byte) (*vfs.Content, error) {
	if err := fp.Validate(); err != nil {
		return nil, fmt.Errorf("cache: put: %w", err)
	}
	c.mu.Lock()
	if e, ok := c.entries[fp]; ok {
		if c.policy == LRU {
			c.order.MoveToBack(e.elem)
		}
		content := e.content
		c.mu.Unlock()
		return content, nil
	}
	size := int64(len(data))
	if c.capacity > 0 && size > c.capacity {
		c.mu.Unlock()
		return nil, fmt.Errorf("cache: put %s (%d bytes): %w", fp, size, ErrTooLarge)
	}
	evicted := c.makeRoom(size)
	content := vfs.NewContent(data)
	e := &entry{fp: fp, content: content}
	e.elem = c.order.PushBack(e)
	c.entries[fp] = e
	c.objects.Add(1)
	c.used += size
	c.bytes.Add(size)
	hooks := c.hooks
	c.mu.Unlock()
	fireEvicts(hooks, evicted)
	if hooks.OnAdmit != nil {
		hooks.OnAdmit(fp, size)
	}
	return content, nil
}

// makeRoom evicts unpinned entries (front first) until size fits,
// returning the removed entries so the caller can fire hooks after
// releasing the lock. Pinned entries (link count > 0) are skipped.
func (c *Cache) makeRoom(size int64) []*entry {
	if c.capacity == 0 {
		return nil
	}
	var evicted []*entry
	elem := c.order.Front()
	for c.used+size > c.capacity && elem != nil {
		next := elem.Next()
		e, ok := elem.Value.(*entry)
		if !ok {
			// The order list only ever holds *entry values.
			elem = next
			continue
		}
		if e.content.Nlink() == 0 {
			c.removeLocked(e)
			evicted = append(evicted, e)
		}
		elem = next
	}
	return evicted
}

func (c *Cache) removeLocked(e *entry) {
	c.order.Remove(e.elem)
	delete(c.entries, e.fp)
	c.objects.Add(-1)
	c.used -= e.content.Size()
	c.bytes.Add(-e.content.Size())
	c.evictions.Inc()
}

// fireEvicts delivers OnEvict for every removed entry, outside the lock.
func fireEvicts(hooks Hooks, evicted []*entry) {
	if hooks.OnEvict == nil {
		return
	}
	for _, e := range evicted {
		hooks.OnEvict(e.fp, e.content.Size())
	}
}

// Drop removes fp from the cache regardless of policy (used when a file
// is superseded). Pinned contents stay alive through their links; the
// cache simply forgets them. Returns whether fp was present.
func (c *Cache) Drop(fp hashing.Fingerprint) bool {
	c.mu.Lock()
	e, ok := c.entries[fp]
	if !ok {
		c.mu.Unlock()
		return false
	}
	c.removeLocked(e)
	c.evictions.Add(-1) // explicit drops are not policy evictions
	hooks := c.hooks
	c.mu.Unlock()
	fireEvicts(hooks, []*entry{e})
	return true
}

// Clear empties the cache (the paper's cold-cache experiment resets the
// client between deployments this way).
func (c *Cache) Clear() {
	c.mu.Lock()
	evicted := make([]*entry, 0, len(c.entries))
	var freed int64
	for _, e := range c.entries {
		evicted = append(evicted, e)
		freed += e.content.Size()
	}
	c.entries = make(map[hashing.Fingerprint]*entry)
	c.order.Init()
	c.objects.Add(-int64(len(evicted)))
	c.used = 0
	c.bytes.Add(-freed)
	hooks := c.hooks
	c.mu.Unlock()
	fireEvicts(hooks, evicted)
}
