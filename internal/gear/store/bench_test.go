package store

import (
	"math/rand"
	"testing"

	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/telemetry"
)

// benchWindowRead measures the chunked demand-read path: each
// iteration cold-faults a 256 KB / 8 KB-chunk file through a 64 KB
// budget. Store construction is excluded from the timer so B/op tracks
// the fetch machinery (gate accounting, singleflight, assembly). read
// must return how many bytes it read: wantBytes, or the whole file when
// wantBytes is 0.
func benchWindowRead(b *testing.B, readahead, wantBytes int, read func(v *viewer.Viewer) (int, error)) {
	ix, reg, want := chunkedFixture(b, 256<<10, 8<<10)
	if wantBytes == 0 {
		wantBytes = len(want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(Options{Remote: reg, ChunkWindowBytes: 64 << 10, ChunkReadahead: readahead})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddIndex(ix); err != nil {
			b.Fatal(err)
		}
		v, err := s.CreateContainer("c", "ai:v1")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := read(v)
		s.WaitReadahead()
		if err != nil || n != wantBytes {
			b.Fatalf("read %d bytes, %v", n, err)
		}
	}
}

// BenchmarkChunkWindowRead reads the whole file at once: every chunk
// faults through the budget, overlapping as far as it allows.
func BenchmarkChunkWindowRead(b *testing.B) {
	benchWindowRead(b, 0, 0, func(v *viewer.Viewer) (int, error) {
		data, err := v.ReadFile("/model")
		return len(data), err
	})
}

// BenchmarkChunkWindowReadahead reads the file front to back in 16 KB
// ranged reads with two chunks of readahead, so all but the first read
// land on chunks a readahead led.
func BenchmarkChunkWindowReadahead(b *testing.B) {
	benchWindowRead(b, 2, 0, func(v *viewer.Viewer) (int, error) {
		var n int
		for off := int64(0); off < 256<<10; off += 16 << 10 {
			data, err := v.ReadAt("/model", off, 16<<10)
			if err != nil {
				return n, err
			}
			n += len(data)
		}
		return n, nil
	})
}

// BenchmarkChunkWindowJumps makes eight 16 KB ranged reads at seeded,
// jumping offsets with two chunks of readahead: half the file's bytes,
// each read fetching only the chunks it overlaps unless it happens to
// continue the container's stream.
func BenchmarkChunkWindowJumps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	offs := make([]int64, 8)
	for i := range offs {
		offs[i] = rng.Int63n(256<<10 - 16<<10)
	}
	benchWindowRead(b, 2, len(offs)*16<<10, func(v *viewer.Viewer) (int, error) {
		var n int
		for _, off := range offs {
			data, err := v.ReadAt("/model", off, 16<<10)
			if err != nil {
				return n, err
			}
			n += len(data)
		}
		return n, nil
	})
}

// BenchmarkGateUncontended is the gate's cost on a miss nothing
// competes with; it sits on every one, so it must not allocate.
func BenchmarkGateUncontended(b *testing.B) {
	g := newGate(DefaultChunkWindowBytes, telemetry.NewRegistry().Gauge("peak"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.enter(classDemand, 4096)
		g.leave(classDemand, 4096)
	}
}
