package wire

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/hashing"
)

// FuzzParseQueryBatchResponse moved here from gearregistry with
// ParseVerdicts, the querybatch client's parser, name and seeds
// unchanged. It also carries the seeds of the retired shard-routing
// protocol's parser that reached it, with the "gear-shard <shard> <verb>
// <n>" line that opened the frame stripped. (The batch reply's fuzzer is
// gearregistry's FuzzBatchReply, which reads replies through the client
// itself.)

// knownFP is the fingerprint the shard-routing seeds were built around.
var knownFP = string(hashing.FingerprintBytes([]byte("known object")))

// FuzzParseQueryBatchResponse: the verdict parser must never panic and
// must only accept well-formed fingerprint/verdict lines.
func FuzzParseQueryBatchResponse(f *testing.F) {
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e present\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e absent\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e-c2 present\n"))
	f.Add([]byte("d41d8cd98f00b204e9800998ecf8427e maybe\n"))
	f.Add([]byte("zzzz present\n"))
	f.Add([]byte("no verdict"))
	f.Add([]byte{})
	for _, body := range []string{
		"",
		knownFP + " present\n",
		knownFP + " present\n" + knownFP + " absent\n",
		"d41d8cd98f00b204e9800998ecf8427e maybe\n", // bad verdict
		"zzzz present\n",       // malformed fingerprint
		knownFP + " present\n", // was under the wrong verb
		"no verdict\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fps, present, err := ParseVerdicts(data)
		if err != nil {
			return
		}
		if len(present) != len(fps) {
			t.Fatalf("%d verdicts for %d fingerprints", len(present), len(fps))
		}
		for _, fp := range fps {
			if err := fp.Validate(); err != nil {
				t.Fatalf("accepted invalid fingerprint %q", fp)
			}
		}
	})
}

// FuzzTransportReply: whatever bytes a server answers with, the
// transport neither panics nor hangs past the request's deadline, and
// hands the connection back for reuse only after a reply that ended
// cleanly — which http.ReadResponse, read straight off the same bytes,
// is the judge of. The server is the far end of a net.Pipe that the
// transport dials: it reads the request, writes the reply in one piece,
// and hangs up.
func FuzzTransportReply(f *testing.F) {
	for _, reply := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 200 OK\r\n\r\nread to the end",
		"HTTP/1.1 20",                                                                // truncated status line
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nok\r\n0\r\n\r\n", // bad chunk size
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",                         // longer than its body
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", // two replies
		"",
	} {
		f.Add([]byte(reply))
	}
	const deadline = 5 * time.Second
	f.Fuzz(func(t *testing.T, reply []byte) {
		clean, more := endsCleanly(reply)
		near, far := net.Pipe()
		tr := &transport{dial: func(context.Context, string, string) (net.Conn, error) { return near, nil }}
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer far.Close()
			if _, err := http.ReadRequest(bufio.NewReader(far)); err == nil {
				_, _ = far.Write(reply)
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://registry/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if resp, err := tr.RoundTrip(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
		if took := time.Since(start); took > deadline+time.Second {
			t.Fatalf("the round trip took %v under a %v deadline", took, deadline)
		}
		kept := len(tr.idle["registry:80"]) > 0
		_ = near.Close() // what the server left unread ends with the pipe
		<-served
		switch {
		case kept && !clean:
			t.Fatalf("reply %q did not end cleanly, and its connection was kept for reuse", reply)
		case !kept && clean && !more:
			t.Fatalf("reply %q ended cleanly, and its connection was not kept for reuse", reply)
		case kept && more && len(reply) <= 4<<10:
			// The connection's 4 KiB read buffer took in all of a reply this
			// short at once: the transport saw the bytes after it. Of a
			// longer one it may not have.
			t.Fatalf("reply %q left bytes on its connection, and the connection was kept for reuse", reply)
		}
	})
}

// endsCleanly reports whether reply opens with a final reply to a GET
// that lets its connection be reused and whose body reads to the end,
// and whether more bytes follow it.
func endsCleanly(reply []byte) (clean, more bool) {
	rd := bytes.NewReader(reply)
	br := bufio.NewReader(rd)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil || resp.StatusCode < 200 || resp.Close {
		return false, false
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return false, false
	}
	return true, br.Buffered() > 0 || rd.Len() > 0
}
