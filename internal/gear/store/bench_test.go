package store

import (
	"testing"

	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/telemetry"
)

// benchWindowRead measures the chunked demand-read path: each
// iteration cold-faults a 256 KB / 8 KB-chunk file through a 64 KB
// budget. Store construction is excluded from the timer so B/op tracks
// the fetch machinery (gate accounting, singleflight, assembly).
func benchWindowRead(b *testing.B, readahead int, read func(v *viewer.Viewer) (int, error)) {
	ix, reg, want := chunkedFixture(b, 256<<10, 8<<10)
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
		if err != nil || n != len(want) {
			b.Fatalf("read %d bytes, %v", n, err)
		}
	}
}

// BenchmarkChunkWindowRead reads the whole file at once: every chunk
// faults through the budget, overlapping as far as it allows.
func BenchmarkChunkWindowRead(b *testing.B) {
	benchWindowRead(b, 0, func(v *viewer.Viewer) (int, error) {
		data, err := v.ReadFile("/model")
		return len(data), err
	})
}

// BenchmarkChunkWindowReadahead reads the file front to back in 16 KB
// ranged reads with two chunks of readahead, so all but the first read
// land on chunks a readahead led.
func BenchmarkChunkWindowReadahead(b *testing.B) {
	benchWindowRead(b, 2, func(v *viewer.Viewer) (int, error) {
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
