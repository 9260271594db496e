package cache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/vfs"
)

// TestConcurrentLinkPins hammers a bounded cache with concurrent Put
// churn while other goroutines pin and unpin entries by hard-linking
// their content into index trees — the §III-D1 invariant that linked
// files are never replacement candidates must hold under full
// concurrency, for both policies. Run with -race.
func TestConcurrentLinkPins(t *testing.T) {
	for _, policy := range []Policy{FIFO, LRU} {
		t.Run(policy.String(), func(t *testing.T) {
			c := mustNew(t, 64, policy)

			// A permanently pinned entry: linked into an index before the
			// churn starts, it must survive arbitrary pressure.
			pinnedFP := fpOf("pinned forever")
			content, err := c.Put(pinnedFP, []byte("12345678"))
			if err != nil {
				t.Fatal(err)
			}
			pinIndex := vfs.New()
			if err := pinIndex.MkdirAll("/index", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := pinIndex.PutContent("/index/pinned", content, 0o644); err != nil {
				t.Fatal(err)
			}

			const (
				writers = 4
				pinners = 4
				rounds  = 200
			)
			var wg sync.WaitGroup
			// Writers churn the cache well past capacity.
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						fp := fpOf(fmt.Sprintf("churn %d %d", g, i))
						if _, err := c.Put(fp, []byte("12345678")); err != nil {
							t.Errorf("put: %v", err)
							return
						}
						c.Get(fp)
					}
				}(g)
			}
			// Pinners repeatedly insert, link, touch, and unlink their own
			// entries, racing the writers' evictions.
			for g := 0; g < pinners; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					f := vfs.New()
					if err := f.MkdirAll("/index", 0o755); err != nil {
						t.Errorf("mkdir: %v", err)
						return
					}
					fp := fpOf(fmt.Sprintf("pinner %d", g))
					for i := 0; i < rounds; i++ {
						// The link races the churn: until it lands the entry
						// is unpinned, and a writer may evict it between Put
						// and PutContent, leaving the link on an orphan.
						// Insert and relink until the linked content is the
						// cached one; every round gets there.
						for pinned := false; !pinned; {
							content, err := c.Put(fp, []byte("abcdefgh"))
							if err != nil {
								t.Errorf("put: %v", err)
								return
							}
							if err := f.PutContent("/index/file", content, 0o644); err != nil {
								t.Errorf("link: %v", err)
								return
							}
							cached, ok := c.Peek(fp)
							pinned = ok && cached == content
						}
						// While linked, the entry must be unevictable no
						// matter how hard the writers churn: watch it across
						// a stretch of their evictions.
						for k := 0; k < 8; k++ {
							if !c.Contains(fp) {
								t.Errorf("pinner %d round %d: pinned entry evicted", g, i)
								return
							}
							runtime.Gosched()
						}
						if got, ok := c.Get(fp); ok && string(got.Data()) != "abcdefgh" {
							t.Errorf("pinner %d: content corrupted", g)
							return
						}
						if err := f.Remove("/index/file"); err != nil {
							t.Errorf("unlink: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()

			if !c.Contains(pinnedFP) {
				t.Error("permanently pinned entry evicted during churn")
			}
			got, ok := c.Get(pinnedFP)
			if !ok || string(got.Data()) != "12345678" {
				t.Error("permanently pinned content lost or corrupted")
			}
			// The churn did evict around the pinned entries.
			if c.evictions.Value() == 0 {
				t.Error("churn produced no evictions; test exerted no pressure")
			}
		})
	}
}

// TestConcurrentGetPutConsistency checks that concurrent readers always
// observe either a miss or the full correct payload, never a torn entry.
func TestConcurrentGetPutConsistency(t *testing.T) {
	c := mustNew(t, 256, LRU)
	const keys = 16
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := (g + i) % keys
				payload := fmt.Sprintf("payload-%02d", k)
				fp := fpOf(payload)
				if g%2 == 0 {
					if _, err := c.Put(fp, []byte(payload)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				} else if got, ok := c.Get(fp); ok && string(got.Data()) != payload {
					t.Errorf("key %d: read %q", k, got.Data())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
