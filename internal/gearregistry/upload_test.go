package gearregistry

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/wire"
)

// A file the pool holds already is verified like any upload and then
// dropped, without being compressed first: it costs no memory of its
// size, whoever wins the race to upload it.
func TestDuplicateUploadIsNotCompressed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not measured under the race detector")
	}
	for _, compress := range []bool{true, false} {
		reg := New(Options{Compress: compress})
		data := halfNoise(3, 1<<20)
		fp := put(t, reg, data)
		before := reg.Stats()
		if got := allocated(t, func() error { return reg.Upload(fp, data) }); got > 64<<10 {
			t.Errorf("compress=%v: a duplicate upload of a 1 MiB file allocates %d bytes, want under 64 KiB", compress, got)
		}
		after := reg.Stats()
		if after.DedupHits != before.DedupHits+5 || after.Objects != 1 || after.StoredBytes != before.StoredBytes {
			t.Errorf("compress=%v: stats %+v after five duplicates of %+v", compress, after, before)
		}
		// Other bytes under a held fingerprint are still a mismatch.
		if err := reg.Upload(fp, halfNoise(4, 1<<20)); !errors.Is(err, ErrFingerprintMismatch) {
			t.Errorf("compress=%v: other bytes under a held fingerprint: %v, want ErrFingerprintMismatch", compress, err)
		}
		if got, _, err := reg.Download(fp); err != nil || !bytes.Equal(got, data) {
			t.Errorf("compress=%v: the held file changed: %v", compress, err)
		}
	}
}

// serve runs one PUT of body through the handler, without a socket:
// what it allocates is the server's side of an upload and nothing else.
func serve(h http.Handler, fp hashing.Fingerprint, body []byte) int {
	// Not a bytes.Reader: a body on a connection cannot write itself out.
	req := httptest.NewRequest(http.MethodPut, "/gear/upload/"+string(fp), struct{ io.Reader }{bytes.NewReader(body)})
	req.ContentLength = int64(len(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// An upload costs the server one buffer of the size the file is stored
// at: the body is never held whole beside it, on either side of
// wire's eager-body line. The slack is TestObjectPathAllocatesTheObjectOnce's.
func TestUploadAllocatesStoredSizeOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not measured under the race detector")
	}
	const slack = 96 << 10
	for _, compress := range []bool{true, false} {
		reg := New(Options{Compress: compress})
		h := NewHandler(reg)
		for _, size := range []int{4 << 10, 300 << 10, 3 << 20} {
			data := halfNoise(int64(size), size)
			fp := hashing.FingerprintBytes(data)
			var stored int64
			got := allocated(t, func() error {
				if code := serve(h, fp, data); code != http.StatusCreated {
					return fmt.Errorf("status %d", code)
				}
				stored = reg.Stats().StoredBytes
				reg.Retain(nil) // the pool holds fp alone
				return nil
			})
			// A raw upload over wire's eager-body line is read into
			// buffers that double up to its declared size.
			bound := stored + slack
			if !compress && size > eagerUpload {
				bound = 2*stored + slack
			}
			if got > bound {
				t.Errorf("compress=%v: uploading %d bytes, stored as %d, allocates %d bytes, want at most %d",
					compress, size, stored, got, bound)
			}
		}
	}
}

// exchange sends raw — whatever it claims about itself — to the server
// at addr, hangs up its sending side, and returns the first reply's
// status.
func exchange(t *testing.T, addr, raw string) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := io.WriteString(conn, raw); err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no reply to %.60q: %v", raw, err)
	}
	_ = resp.Body.Close()
	return resp.StatusCode
}

// hostileUploads are requests to the upload verb that must store
// nothing, with the status each is answered (the status the buffered
// verb answered it, too).
func hostileUploads() map[string]struct {
	raw    string
	status int
} {
	good := "the file the fingerprint names"
	fp := string(hashing.FingerprintBytes([]byte(good)))
	put := func(fp, head, body string) string {
		return "PUT /gear/upload/" + fp + " HTTP/1.1\r\nHost: x\r\n" + head + "\r\n" + body
	}
	length := func(n int) string { return fmt.Sprintf("Content-Length: %d\r\n", n) }
	chunked := func(body string) string { return fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(body), body) }
	return map[string]struct {
		raw    string
		status int
	}{
		"wrong fingerprint":       {put(fp, length(11), "other bytes"), http.StatusBadRequest},
		"shorter than declared":   {put(fp, length(len(good)+10), good), http.StatusBadRequest},
		"longer than declared":    {put(fp, length(len(good)-1), good), http.StatusBadRequest},
		"chunked, wrong bytes":    {put(fp, "Transfer-Encoding: chunked\r\n", chunked("other bytes")), http.StatusBadRequest},
		"chunked, cut off":        {put(fp, "Transfer-Encoding: chunked\r\n", "ff\r\n"+good), http.StatusBadRequest},
		"declared over MaxBody":   {put(fp, length(wire.MaxBody+1), good), http.StatusRequestEntityTooLarge},
		"malformed fingerprint":   {put("not-a-fingerprint", length(len(good)), good), http.StatusBadRequest},
		"malformed collision ID":  {put(fp+"-cx", length(len(good)), good), http.StatusBadRequest},
		"no fingerprint":          {put("", length(len(good)), good), http.StatusNotFound},
		"empty under a real name": {put(fp, length(0), ""), http.StatusBadRequest},
	}
}

// Uploads that lie — about their content, their length, their name —
// are answered what they always were, and leave the pool as it was.
func TestHostileUploads(t *testing.T) {
	for _, compress := range []bool{true, false} {
		reg := New(Options{Compress: compress})
		srv := httptest.NewServer(NewHandler(reg))
		addr := strings.TrimPrefix(srv.URL, "http://")
		held := put(t, reg, []byte("what the pool held before"))
		before := reg.Stats()
		for name, tc := range hostileUploads() {
			if got := exchange(t, addr, tc.raw); got != tc.status {
				t.Errorf("compress=%v: %s: status %d, want %d", compress, name, got, tc.status)
			}
			if after := reg.Stats(); after != before {
				t.Errorf("compress=%v: %s: pool went from %+v to %+v", compress, name, before, after)
			}
		}
		// The same verb still takes an honest upload, with a length or
		// without one.
		for i, head := range []string{"Content-Length: 5\r\n", "Transfer-Encoding: chunked\r\n"} {
			body := fmt.Sprintf("ok: %d", i)
			raw := body
			if i == 1 {
				raw = "5\r\n" + body + "\r\n0\r\n\r\n"
			}
			fp := hashing.FingerprintBytes([]byte(body))
			status := exchange(t, addr, "PUT /gear/upload/"+string(fp)+" HTTP/1.1\r\nHost: x\r\n"+head+"\r\n"+raw)
			if got, _, err := reg.Download(fp); status != http.StatusCreated || err != nil || string(got) != body {
				t.Errorf("compress=%v: honest upload %d: status %d, download %q, %v", compress, i, status, got, err)
			}
		}
		if got, _, err := reg.Download(held); err != nil || string(got) != "what the pool held before" {
			t.Errorf("compress=%v: the held file changed: %q, %v", compress, got, err)
		}
		srv.Close()
	}
}

// FuzzUploadBody: whatever name, bytes and declared length an upload
// arrives with, the handler answers one of its statuses, admits the
// file only if the name is the fingerprint of exactly the bytes that
// arrived and they are as many as declared, and otherwise leaves the
// pool untouched.
func FuzzUploadBody(f *testing.F) {
	good := []byte("the file the fingerprint names")
	fp := string(hashing.FingerprintBytes(good))
	f.Add(fp, good, int64(len(good)))
	f.Add(fp, []byte("other bytes"), int64(11)) // wrong fingerprint
	f.Add(fp, good, int64(len(good)+10))        // shorter than declared
	f.Add(fp, good, int64(len(good)-1))         // longer than declared
	f.Add(fp, good, int64(-1))                  // no length
	f.Add(fp, good, int64(wire.MaxBody+1))      // over the bound
	f.Add("not-a-fingerprint", good, int64(len(good)))
	f.Add(fp+"-c1", good, int64(len(good))) // collision ID: nothing to verify by
	f.Add(fp, []byte{}, int64(0))
	f.Add("", good, int64(len(good)))

	f.Fuzz(func(t *testing.T, name string, body []byte, declared int64) {
		for _, compress := range []bool{true, false} {
			reg := New(Options{Compress: compress})
			req := httptest.NewRequest(http.MethodPut, "/gear/upload/x", struct{ io.Reader }{bytes.NewReader(body)})
			req.URL.Path = "/gear/upload/" + name
			req.ContentLength = declared
			rec := httptest.NewRecorder()
			NewHandler(reg).ServeHTTP(rec, req)

			fp := hashing.Fingerprint(name)
			switch rec.Code {
			case http.StatusCreated:
				named := fp == hashing.FingerprintBytes(body) || (fp.Valid() && len(fp) > 32)
				if !named || (declared >= 0 && declared != int64(len(body))) {
					t.Fatalf("admitted %d bytes declared as %d under %q", len(body), declared, name)
				}
				if got, _, err := reg.Download(fp); err != nil || !bytes.Equal(got, body) {
					t.Fatalf("admitted file reads back wrong: %v", err)
				}
				if st := reg.Stats(); st.Objects != 1 || st.LogicalBytes != int64(len(body)) {
					t.Fatalf("admitted %d bytes, stats %+v", len(body), st)
				}
			case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
				if st := reg.Stats(); st != (Stats{}) {
					t.Fatalf("refused with %d, yet the pool holds %+v", rec.Code, st)
				}
			default:
				t.Fatalf("unexpected status %d", rec.Code)
			}
		}
	})
}

// BenchmarkPoolUpload is what scripts/benchguard.sh gates of the write
// side of the pool: one upload of a 300 KiB file through the handler
// allocates about what the file is stored at.
func BenchmarkPoolUpload(b *testing.B) {
	reg := New(Options{Compress: true})
	h := NewHandler(reg)
	data := halfNoise(1, 300<<10)
	fp := hashing.FingerprintBytes(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serve(h, fp, data); code != http.StatusCreated {
			b.Fatalf("status %d", code)
		}
		reg.Retain(nil)
	}
}
