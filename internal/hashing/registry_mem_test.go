package hashing

import (
	"math/rand"
	"runtime"
	"testing"
)

// assignPayloads assigns n distinct payloads of size bytes each and
// returns the registry (payloads go out of scope before measurement).
func assignPayloads(tb testing.TB, n, size int) *Registry {
	tb.Helper()
	r := NewRegistry(nil)
	rng := rand.New(rand.NewSource(int64(size)))
	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		rng.Read(buf)
		if fp := r.Assign(buf); !fp.Valid() {
			tb.Fatalf("invalid fingerprint %q", fp)
		}
	}
	if got := entries(r); got != n {
		tb.Fatalf("entries = %d, want %d", got, n)
	}
	return r
}

// heapLive returns the live heap after a full GC.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRegistryDoesNotRetainContents asserts the digest-backed registry's
// resident size is independent of payload size: N one-megabyte payloads
// must not leave ~N MB resident the way the old clone-everything
// registry did. The retained state is a fixed-size verifier per entry,
// so registries fed 1 KiB and 1 MiB payloads must end up within noise of
// each other.
func TestRegistryDoesNotRetainContents(t *testing.T) {
	const n = 64
	base := heapLive()
	small := assignPayloads(t, n, 1<<10) // 64 KiB total corpus
	afterSmall := heapLive()
	large := assignPayloads(t, n, 1<<20) // 64 MiB total corpus
	afterLarge := heapLive()

	smallGrowth := int64(afterSmall) - int64(base)
	largeGrowth := int64(afterLarge) - int64(afterSmall)
	// The large corpus is 1024x the small one. If the registry retained
	// contents, largeGrowth would be ~64 MiB; with digests it is a few
	// KiB of map state, identical to the small case. Allow 1 MiB of slack
	// for allocator noise — still 64x below content retention.
	const slack = 1 << 20
	if largeGrowth > slack {
		t.Errorf("heap grew %d bytes after 64 MiB of 1 MiB payloads; registry appears to retain contents (small-payload growth was %d)",
			largeGrowth, smallGrowth)
	}
	runtime.KeepAlive(small)
	runtime.KeepAlive(large)
}

// TestRegistryCollisionsUnderWeakHasherStillResolve pairs the memory
// guarantee with correctness: a colliding hasher still yields distinct
// "-cN" IDs for distinct contents and stable IDs for duplicates, even
// though no content bytes are retained for comparison.
func TestRegistryCollisionsUnderWeakHasherStillResolve(t *testing.T) {
	r := NewRegistry(weakHasher{})
	// Three distinct even-length contents collide under weakHasher.
	a := r.Assign([]byte("aaaa"))
	b := r.Assign([]byte("bbbb"))
	c := r.Assign([]byte("cccc"))
	if a == b || b == c || a == c {
		t.Fatalf("colliding contents shared an ID: %s %s %s", a, b, c)
	}
	wantFP := Fingerprint("00000000000000000000000000000000")
	if a != wantFP {
		t.Errorf("first content = %s, want bare %s", a, wantFP)
	}
	if b != wantFP+"-c1" || c != wantFP+"-c2" {
		t.Errorf("fallback IDs = %s, %s; want -c1, -c2", b, c)
	}
	for i, data := range [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")} {
		got := r.Assign(data)
		want := []Fingerprint{a, b, c}[i]
		if got != want {
			t.Errorf("re-assign %d = %s, want %s", i, got, want)
		}
	}
	if n := fallbacks(a, b, c); n != 2 {
		t.Errorf("%d collision fallback IDs, want 2", n)
	}
}

// --- Microbenchmarks: the fingerprint-assignment hot path ---

func benchItems(n, size int, dupEvery int) [][]byte {
	rng := rand.New(rand.NewSource(42))
	items := make([][]byte, n)
	for i := range items {
		if dupEvery > 0 && i%dupEvery == 1 {
			items[i] = items[i-1] // duplicate of the previous item
			continue
		}
		data := make([]byte, size)
		rng.Read(data)
		items[i] = data
	}
	return items
}

// BenchmarkRegistryAssign measures serial assignment of 4 KiB objects
// with a 50% duplicate rate (the dedup-heavy shape of the corpus).
func BenchmarkRegistryAssign(b *testing.B) {
	items := benchItems(256, 4096, 2)
	b.ReportAllocs()
	b.SetBytes(int64(len(items)) * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRegistry(nil)
		for _, data := range items {
			r.Assign(data)
		}
	}
}

// BenchmarkRegistryAssignLarge isolates the memory benefit: 1 MiB
// payloads, where the old registry cloned every byte.
func BenchmarkRegistryAssignLarge(b *testing.B) {
	items := benchItems(16, 1<<20, 0)
	b.ReportAllocs()
	b.SetBytes(16 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRegistry(nil)
		for _, data := range items {
			r.Assign(data)
		}
	}
}
