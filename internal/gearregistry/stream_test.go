package gearregistry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/registry"
	"github.com/gear-image/gear/internal/tarstream"
	"github.com/gear-image/gear/internal/wire"
)

// halfNoise is size bytes that gzip to about half: noise, then zeros.
func halfNoise(seed int64, size int) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data[:size/2])
	return data
}

// allocated is the fewest bytes the process allocates in a call of f,
// over a few calls, the server's side of the exchange included: client
// and server share it. The fewest is what the path costs with its pools
// warm; a mean would count the pooled compressor or buffer a collection
// took, or another P holds, which the path then builds again.
func allocated(t *testing.T, f func() error) int64 {
	t.Helper()
	const runs = 4
	if err := f(); err != nil { // fill the pools, open the connection
		t.Fatal(err)
	}
	least := int64(-1)
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := int64(after.TotalAlloc - before.TotalAlloc); least < 0 || got < least {
			least = got
		}
	}
	return least
}

// An object crosses handler, wire and client in one allocation of its
// own size: no staging buffer of the stored bytes, no growth copies, on
// either side of eagerBody. The slack is what a request costs whatever
// it carries (net/http's structures on both sides, a pool refilled
// after a collection); it does not grow with the object, and a second
// copy of a 300 KiB object does not fit in it. A range asks for the
// middle half, which the server's slice and the client's each hold
// once.
func TestObjectPathAllocatesTheObjectOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not measured under the race detector: it drops a random share of sync.Pool Puts, " +
			"so a pooled compressor is refilled inside the measured call")
	}
	// One P for the test: sync.Pool keeps what is put back in a slot of
	// the P that put it, and a call that runs on another P finds its
	// compressor out of reach and builds a new one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const slack = 96 << 10
	reg := New(Options{Compress: true})
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	for _, size := range []int{4 << 10, 300 << 10, 3 << 20} {
		data := halfNoise(int64(size), size)
		fp := put(t, reg, data)
		verbs := map[string]func() error{
			"Download": func() error {
				got, _, err := c.Download(fp)
				if err == nil && !bytes.Equal(got, data) {
					err = errors.New("wrong bytes")
				}
				return err
			},
			"DownloadBatch": func() error {
				got, _, err := c.DownloadBatch([]hashing.Fingerprint{fp})
				if err == nil && !bytes.Equal(got[0], data) {
					err = errors.New("wrong bytes")
				}
				return err
			},
			"DownloadRange": func() error {
				off, n := size/4, size/2
				got, _, err := c.DownloadRange(fp, int64(off), int64(n))
				if err == nil && !bytes.Equal(got, data[off:off+n]) {
					err = errors.New("wrong bytes")
				}
				return err
			},
		}
		for name, call := range verbs {
			if got := allocated(t, call); got > int64(size)+slack {
				t.Errorf("%s of a %d-byte object allocates %d bytes a call, want at most %d",
					name, size, got, size+slack)
			}
		}
	}
}

// hostile serves one sound gzip object with whatever the test says
// about it.
type hostile struct {
	stored   []byte
	size     string // X-Gear-Size; "" for none
	encoding string
	frame    bool // answer in batch framing
	fp       hashing.Fingerprint
}

func (h hostile) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	if h.size != "" {
		w.Header().Set(wire.SizeHeader, h.size)
	}
	body := h.stored
	if h.frame {
		body = append(fmt.Appendf(nil, "%s %d %s\n", h.fp, len(h.stored), h.encoding), h.stored...)
	} else if h.encoding == "gzip" {
		w.Header().Set(wire.EncodingHeader, "gzip")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// What a reply declares about an object's size is never trusted: absent,
// short, long or absurd, the client returns the right bytes or a typed
// error, and never gives the claim memory beyond deflate's reach of the
// bytes the reply holds.
func TestDeclaredSizeIsOnlyAHint(t *testing.T) {
	data := halfNoise(7, 4<<10)
	fp := hashing.FingerprintBytes(data)
	stored, err := tarstream.Gzip(data)
	if err != nil {
		t.Fatal(err)
	}
	reach := len(stored)*1032 + 64 // tarstream.SizeHint's clamp
	for _, c := range []struct {
		name, size string
		ok         bool
	}{
		{"absent", "", true},
		{"exact", strconv.Itoa(len(data)), true},
		{"too small", "100", false},
		{"one short", strconv.Itoa(len(data) - 1), false},
		{"one long", strconv.Itoa(len(data) + 1), false},
		{"too large", strconv.Itoa(reach + 1), false},
		{"absurd", strconv.Itoa(1 << 40), false},
		{"negative", "-5", true},
		{"not a number", "big", true},
		{"a list", strconv.Itoa(len(data)) + ",12", true},
	} {
		for _, batch := range []bool{false, true} {
			srv := httptest.NewServer(hostile{stored: stored, size: c.size, encoding: "gzip", frame: batch, fp: fp})
			client := NewClient(srv.URL, nil)
			var got []byte
			var err error
			spent := allocated(t, func() error {
				if batch {
					var all [][]byte
					if all, _, err = client.DownloadBatch([]hashing.Fingerprint{fp}); err == nil {
						got = all[0]
					}
				} else {
					got, _, err = client.Download(fp)
				}
				return nil
			})
			srv.Close()
			switch {
			case c.ok && (err != nil || !bytes.Equal(got, data)):
				t.Errorf("%s (batch=%v): err = %v, want the object", c.name, batch, err)
			case !c.ok && !errors.Is(err, wire.ErrBadReply):
				t.Errorf("%s (batch=%v): err = %v, want ErrBadReply", c.name, batch, err)
			}
			if spent > 1<<20 {
				t.Errorf("%s (batch=%v): %d bytes allocated a call for a 4 KiB object", c.name, batch, spent)
			}
		}
	}
}

// A frame that claims more stored bytes than the reply has left, and a
// reply cut short of what it declared, are refused without the claim
// being given memory.
func TestLyingFrameLengthIsRefused(t *testing.T) {
	data := []byte("a small object")
	fp := hashing.FingerprintBytes(data)
	for name, body := range map[string]string{
		"frame over the reply": fmt.Sprintf("%s %d raw\n%s", fp, 1<<29, data),
		"frame cut short":      fmt.Sprintf("%s %d raw\n%s", fp, len(data)+1, data[:len(data)-3]),
		"second frame cut":     fmt.Sprintf("%s %d raw\n%s%s 5 raw\nab", fp, len(data), data, fp),
		"header cut":           fmt.Sprintf("%s %d raw\n%s%s 5", fp, len(data), data, fp),
	} {
		spent := allocated(t, func() error {
			_, _, err := cannedClient(nil, []byte(body)).DownloadBatch([]hashing.Fingerprint{fp, fp})
			if !errors.Is(err, wire.ErrBadReply) {
				t.Errorf("%s: err = %v, want ErrBadReply", name, err)
			}
			return nil
		})
		if spent > 1<<20 {
			t.Errorf("%s: %d bytes allocated a call", name, spent)
		}
	}
}

// liar is a server that answers every request 200 with the head it is
// given, whatever that claims, then the few body bytes it really has,
// and hangs up. It speaks raw TCP because net/http would not let a
// handler declare a length it does not write.
func liar(t *testing.T, head string, body string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = conn.Read(make([]byte, 4096)) // the request
			_, _ = io.WriteString(conn, "HTTP/1.1 200 OK\r\n"+head+"\r\n"+body)
			_ = conn.Close()
		}
	}()
	return "http://" + ln.Addr().String()
}

// A reply's Content-Length is as much the server's claim as its size
// header: a reply that declares a gigabyte both ways and then sends a
// few bytes is refused having been given memory for what it sent, not
// for what it said.
func TestLyingContentLengthIsNotAllocated(t *testing.T) {
	fp := hashing.FingerprintBytes([]byte("abc"))
	const big = 1 << 29
	length := fmt.Sprintf("Content-Length: %d\r\n", wire.MaxBody)
	for name, c := range map[string]struct {
		head, body string
		call       func(url string) error
	}{
		"raw download": {
			head: length + "X-Gear-Size: 1073741824\r\n", body: "abc",
			call: func(url string) error { _, _, err := NewClient(url, nil).Download(fp); return err },
		},
		"gzip download": {
			head: length + "X-Gear-Encoding: gzip\r\nX-Gear-Size: 3000000000\r\n", body: "\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\x00",
			call: func(url string) error { _, _, err := NewClient(url, nil).Download(fp); return err },
		},
		"raw frame": {
			head: length, body: fmt.Sprintf("%s %d raw\nabc", fp, big),
			call: func(url string) error {
				_, _, err := NewClient(url, nil).DownloadBatch([]hashing.Fingerprint{fp})
				return err
			},
		},
		"gzip frame": {
			head: length + "X-Gear-Size: 3000000000\r\n", body: fmt.Sprintf("%s %d gzip\n\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\x00", fp, big),
			call: func(url string) error {
				_, _, err := NewClient(url, nil).DownloadBatch([]hashing.Fingerprint{fp})
				return err
			},
		},
		// The length of a range is the caller's own number, and it too
		// waits for the bytes.
		"range": {
			head: length, body: fmt.Sprintf("%s 0 %d %d\nabc", fp, big, wire.MaxBody),
			call: func(url string) error { _, _, err := NewClient(url, nil).DownloadRange(fp, 0, big); return err },
		},
		// A Docker blob is read by the same reader.
		"blob": {
			head: length, body: "abc",
			call: func(url string) error {
				_, err := registry.NewClient(url, nil).GetBlob(hashing.DigestBytes([]byte("abc")))
				return err
			},
		},
	} {
		url := liar(t, c.head, c.body)
		spent := allocated(t, func() error {
			if err := c.call(url); !errors.Is(err, wire.ErrBadReply) {
				t.Errorf("%s: err = %v, want ErrBadReply", name, err)
			}
			return nil
		})
		if spent > 256<<10 {
			t.Errorf("%s: %d bytes allocated a call for a reply of a few bytes", name, spent)
		}
	}
}

// A gzip object whose declared size the client trusts is given exactly
// that memory, on every verb that carries one: the end of the stream is
// found without a byte more, which for an object the size of a size
// class (16 KiB) would be the next class, 2 KiB up. So an object of that
// size costs what one a byte shorter does.
func TestTrustedSizeIsAllocatedExactly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not measured under the race detector")
	}
	cost := func(verb string, size int) int64 {
		data := bytes.Repeat([]byte("exactly its size "), size/17+1)[:size]
		fp := hashing.FingerprintBytes(data)
		gz, err := tarstream.Gzip(data)
		if err != nil {
			t.Fatal(err)
		}
		declared := http.Header{wire.SizeHeader: {strconv.Itoa(size)}}
		var call func(*Client) ([]byte, error)
		var body []byte
		switch verb {
		case "download":
			declared.Set(wire.EncodingHeader, "gzip")
			body = gz
			call = func(c *Client) ([]byte, error) { got, _, err := c.Download(fp); return got, err }
		case "batch":
			body = append(fmt.Appendf(nil, "%s %d gzip\n", fp, len(gz)), gz...)
			call = func(c *Client) ([]byte, error) {
				got, _, err := c.DownloadBatch([]hashing.Fingerprint{fp})
				if err != nil {
					return nil, err
				}
				return got[0], nil
			}
		case "range":
			declared = nil
			body = gzipReply(fp, 0, int64(size), int64(size), int64(len(gz)), gz)
			call = func(c *Client) ([]byte, error) { got, _, err := c.DownloadRange(fp, 0, int64(size)); return got, err }
		}
		c := cannedClient(declared, body)
		return allocated(t, func() error {
			got, err := call(c)
			if err == nil && !bytes.Equal(got, data) {
				err = errors.New("wrong bytes")
			}
			return err
		})
	}
	for _, verb := range []string{"download", "batch", "range"} {
		if over := cost(verb, 16<<10) - cost(verb, 16<<10-1); over > 512 {
			t.Errorf("%s: a 16 KiB object allocates %d bytes more than one a byte shorter", verb, over)
		}
	}
}

// A pool that predates the size header, or a raw one, is still read
// right: the header is an optimisation, not part of the contract.
func TestDownloadWithoutSizeHeader(t *testing.T) {
	data := halfNoise(9, 50_000)
	fp := hashing.FingerprintBytes(data)
	stored, err := tarstream.Gzip(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []hostile{
		{stored: stored, encoding: "gzip", fp: fp},
		{stored: data, encoding: "raw", fp: fp},
		{stored: stored, encoding: "gzip", fp: fp, frame: true},
		{stored: data, encoding: "raw", fp: fp, frame: true},
	} {
		srv := httptest.NewServer(h)
		c := NewClient(srv.URL, nil)
		var got []byte
		var wireBytes int64
		if h.frame {
			var all [][]byte
			if all, wireBytes, err = c.DownloadBatch([]hashing.Fingerprint{fp}); err == nil {
				got = all[0]
			}
		} else {
			got, wireBytes, err = c.Download(fp)
		}
		srv.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s frame=%v: err = %v, want the object", h.encoding, h.frame, err)
		}
		if want := int64(len(h.stored)); !h.frame && wireBytes != want {
			t.Errorf("%s: wire bytes = %d, want %d", h.encoding, wireBytes, want)
		}
	}
}

// The allocation figures scripts/benchguard.sh gates: what one download
// costs end to end over loopback HTTP, what the pool spends to cut a
// 16 KiB range out of a compressed object, and what the range verb
// spends to answer for one, reply included.
func BenchmarkClientDownload(b *testing.B) {
	reg := New(Options{Compress: true})
	data := halfNoise(1, 300<<10)
	fp := hashing.FingerprintBytes(data)
	if err := reg.Upload(fp, data); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Download(fp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolDownloadRange cuts the range out of objects of two sizes:
// a range inflates only the segments it overlaps, so neither its time
// nor its memory grows with the object.
func BenchmarkPoolDownloadRange(b *testing.B) {
	for _, size := range []int{768 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			reg := New(Options{Compress: true})
			fp := put(b, reg, halfNoise(2, size))
			b.SetBytes(16 << 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := reg.DownloadRange(fp, 300<<10, 16<<10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// prose is size bytes of words picked at random from a short list:
// content that deflate shrinks to about a third, as text and code do.
func prose(seed int64, size int) []byte {
	words := strings.Fields("the gear registry stores files by fingerprint and serves ranges of them to lazy readers over http")
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	for len(out) < size {
		out = append(append(out, words[rng.Intn(len(words))]...), ' ')
	}
	return out[:size]
}

// discardReply is a ResponseWriter that keeps nothing of the reply but
// its length, so a handler benchmark counts the handler's own cost.
type discardReply struct {
	header http.Header
	n      int
}

func (d *discardReply) Header() http.Header { return d.header }
func (d *discardReply) WriteHeader(int)     {}
func (d *discardReply) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// BenchmarkServeRange answers a 16 KiB range from a 768 KiB compressed
// object, writing the reply: from noise, sent raw, and from text, sent
// gzip-framed.
func BenchmarkServeRange(b *testing.B) {
	for _, c := range []struct {
		name    string
		content []byte
	}{{"raw", halfNoise(2, 768<<10)}, {"gzip", prose(2, 768<<10)}} {
		b.Run(c.name, func(b *testing.B) {
			reg := New(Options{Compress: true})
			fp := put(b, reg, c.content)
			h := NewHandler(reg)
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/gear/range/%s/%d/%d", fp, 300<<10, 16<<10), nil)
			w := &discardReply{header: make(http.Header)}
			b.SetBytes(16 << 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.n = 0
				h.ServeHTTP(w, req)
				if w.n == 0 {
					b.Fatal("no reply")
				}
			}
			b.ReportMetric(float64(w.n), "reply-bytes")
		})
	}
}
