package gearregistry

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
)

// loopback is a compressing pool behind its handler on a loopback
// listener, and a client of it on wire's own transport.
func loopback(tb testing.TB) (*Registry, *Client) {
	reg := New(Options{Compress: true})
	srv := httptest.NewServer(NewHandler(reg))
	tb.Cleanup(srv.Close)
	return reg, NewClient(srv.URL, nil)
}

// A request costs its payload: beside the one buffer of the size the
// file is stored at, an upload allocates what net/http spends on any
// request, on both sides — no copy buffer for the body, whatever its
// length; and a range costs the client's slice and nothing of the
// server's, whose own is borrowed. Client and in-process server are
// counted together.
func TestRequestCostsItsPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not measured under the race detector")
	}
	reg, c := loopback(t)

	data := halfNoise(5, 256<<10)
	fp := hashing.FingerprintBytes(data)
	var stored int64
	got := allocated(t, func() error {
		if err := c.Upload(fp, data); err != nil {
			return err
		}
		stored = reg.Stats().StoredBytes
		reg.Retain(nil) // the pool holds fp alone
		return nil
	})
	if bound := stored + 24<<10; got > bound {
		t.Errorf("uploading 256 KiB, stored as %d bytes, allocates %d, want at most %d", stored, got, bound)
	}

	const off, n = 300 << 10, 16 << 10
	lib := halfNoise(6, 768<<10)
	fp = put(t, reg, lib)
	got = allocated(t, func() error {
		slice, _, err := c.DownloadRange(fp, off, n)
		if err == nil && !bytes.Equal(slice, lib[off:off+n]) {
			err = fmt.Errorf("wrong bytes")
		}
		return err
	})
	if bound := int64(n + 10<<10); got > bound {
		t.Errorf("a 16 KiB range allocates %d bytes, want at most %d", got, bound)
	}
}

// A range reply borrows its buffer only until it has been written:
// readers of different objects, each answered thousands of times from
// the same few buffers, only ever see their own bytes. And a buffer
// over maxPooledRange is not kept for the next reply.
func TestRangeRepliesDoNotShareBytes(t *testing.T) {
	reg, c := loopback(t)

	const readers, replies = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		// Every byte of an object names its reader.
		data := bytes.Repeat([]byte{byte('A' + i)}, 6000+500*i)
		fp := put(t, reg, data)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < replies; j++ {
				off := rng.Intn(len(data) - 1)
				n := 1 + rng.Intn(len(data)-off-1)
				got, _, err := c.DownloadRange(fp, int64(off), int64(n))
				if err != nil || !bytes.Equal(got, data[off:off+n]) {
					t.Errorf("reader %d, reply %d: [%d,+%d) is not its own bytes: %v", i, j, off, n, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	big := halfNoise(7, 5<<20)
	fp := put(t, reg, big)
	if got, _, err := c.DownloadRange(fp, 1<<20, 4<<20); err != nil || !bytes.Equal(got, big[1<<20:5<<20]) {
		t.Fatalf("a 4 MiB range: %v", err)
	}
	for i := 0; i < 4*readers; i++ {
		if buf := rangeBuffers.Get().(*[]byte); cap(*buf) > maxPooledRange {
			t.Fatalf("a %d-byte buffer was kept, the bound is %d", cap(*buf), maxPooledRange)
		}
	}
}

// The request shapes scripts/benchguard.sh gates beside
// BenchmarkClientDownload: what one upload, one range and one 600-line
// presence query allocate, client and server together.

func BenchmarkClientUpload(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			reg, c := loopback(b)
			data := halfNoise(int64(size), size)
			fp := hashing.FingerprintBytes(data)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Upload(fp, data); err != nil {
					b.Fatal(err)
				}
				reg.Retain(nil)
			}
		})
	}
}

func BenchmarkClientDownloadRange(b *testing.B) {
	reg, c := loopback(b)
	data := halfNoise(2, 768<<10)
	fp := hashing.FingerprintBytes(data)
	if err := reg.Upload(fp, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(16 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DownloadRange(fp, 300<<10, 16<<10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientQueryBatch600(b *testing.B) {
	reg, c := loopback(b)
	fps := make([]hashing.Fingerprint, 600)
	for i := range fps {
		fps[i] = hashing.FingerprintBytes([]byte{byte(i), byte(i >> 8)})
		if i%2 == 0 {
			if err := reg.Upload(fps[i], []byte{byte(i), byte(i >> 8)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.QueryBatch(fps); err != nil {
			b.Fatal(err)
		}
	}
}
