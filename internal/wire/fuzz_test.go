package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
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

// FuzzTransportReply: whatever bytes a server answers with, the codec
// reads them as http.ReadResponse, read straight off the same bytes,
// does — the same status and the same body bytes where it accepts them,
// an error where it errs or takes a 1xx reply — except that it refuses
// three things no server here sends: a header block over maxHeader (as
// an ErrBadReply), a folded header field, and trailer fields after a
// chunked body. It neither panics nor
// hangs past the deadline, allocates no more than the bytes it was sent
// account for, and hands the connection back for reuse only after a
// reply that ended cleanly. The server is the far end of a net.Pipe that
// the transport dials: it reads the request, writes the reply in one
// piece, and hangs up.
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
		"HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("a", maxHeader) + "\r\nContent-Length: 2\r\n\r\nok",         // over the header bound
		"HTTP/1.1 200 OK\r\nContent-Length: 1073741824\r\n\r\nlies",                                               // a lying Content-Length
		"HTTP/1.1 200 OK\r\nX-Gear-Size: 2,\r\n\t3\r\nContent-Length: 2\r\n\r\nok",                                // a folded field
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n2\r\nok\r\n0\r\nX-Sum: 1\r\n\r\n", // a trailer
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: Content-Length\r\n\r\n0\r\n\r\n",               // a forbidden one
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",                                     // lengths that differ
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nok",                                                    // an encoding net/http refuses
	} {
		f.Add([]byte(reply))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		want := judge(reply)
		got := readOver(reply)
		if got.took > replyDeadline+time.Second {
			t.Fatalf("the round trip took %v under a %v deadline", got.took, replyDeadline)
		}
		// The fuzzing engine allocates beside the round trip now and then,
		// so an overrun is measured twice more: what is caught is an
		// allocation the size of a claim, not of the bytes behind it.
		bound := 64<<10 + 8*uint64(len(reply))
		for try := 0; got.spent > bound && try < 2; try++ {
			got.spent = min(got.spent, readOver(reply).spent)
		}
		if got.spent > bound {
			t.Fatalf("%d bytes allocated to read a %d-byte reply", got.spent, len(reply))
		}
		err, status, body, berr, kept := got.err, got.status, got.body, got.bodyErr, got.kept
		refused := errors.Is(err, ErrBadReply) && len(reply) > maxHeader ||
			errors.Is(err, errFolded) && (bytes.Contains(reply, []byte("\n ")) || bytes.Contains(reply, []byte("\n\t"))) ||
			errors.Is(berr, errTrailer) && want.trailer
		switch {
		case refused:
		case (err != nil) != (want.err != nil):
			t.Fatalf("reply %.200q: the codec says %v, net/http %v", reply, err, want.err)
		case err != nil:
		case status != want.status || (berr != nil) != (want.bodyErr != nil) || berr == nil && !bytes.Equal(body, want.body):
			t.Fatalf("reply %.200q: the codec reads %d %q (%v), net/http %d %q (%v)", reply, status, body, berr, want.status, want.body, want.bodyErr)
		}
		switch {
		case kept && !want.clean:
			t.Fatalf("reply %.200q did not end cleanly, and its connection was kept for reuse", reply)
		case !kept && want.clean && !want.more && !refused:
			t.Fatalf("reply %.200q ended cleanly, and its connection was not kept for reuse", reply)
		case kept && want.more && len(reply) <= 4<<10:
			// The connection's 4 KiB read buffer took in all of a reply this
			// short at once: the transport saw the bytes after it. Of a
			// longer one it may not have.
			t.Fatalf("reply %.200q left bytes on its connection, and the connection was kept for reuse", reply)
		}
	})
}

// replyDeadline is the deadline readOver reads a reply under.
const replyDeadline = 5 * time.Second

// read is what the codec made of a reply, and what it cost.
type read struct {
	err     error // the reply's status line or header is refused
	status  int
	body    []byte
	bodyErr error
	kept    bool          // the connection went back for reuse
	took    time.Duration // the round trip, and the body
	spent   uint64        // bytes allocated meanwhile
}

// readOver has a client on its own transport read reply to a GET off the
// far end of a net.Pipe.
func readOver(reply []byte) (r read) {
	near, far := net.Pipe()
	tr := &transport{dial: func(string, string) (net.Conn, error) { return near, nil }}
	c := ownClient("http://registry", tr, replyDeadline)
	request := make([]byte, 4<<10)
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer far.Close()
		for n := 0; !bytes.Contains(request[:n], []byte("\r\n\r\n")); {
			m, err := far.Read(request[n:])
			if err != nil {
				return
			}
			n += m
		}
		_, _ = far.Write(reply)
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	pc, status, err := c.roundTrip(http.MethodGet, "/x", nil, nil)
	r.err, r.status = err, status
	if err == nil {
		r.body, r.bodyErr = io.ReadAll(&pc.reply)
	}
	r.took = time.Since(start)
	runtime.ReadMemStats(&after)
	r.spent = after.TotalAlloc - before.TotalAlloc
	if err == nil {
		pc.release()
		r.kept = len(tr.idle["registry:80"]) > 0
	}
	_ = near.Close() // what the server left unread ends with the pipe
	<-served
	return r
}

// verdict is what net/http makes of a reply to a GET.
type verdict struct {
	err     error // the reply is refused: it does not parse, or is 1xx
	status  int
	body    []byte
	bodyErr error
	clean   bool // the body read to its end, and the connection may be reused
	more    bool // bytes follow the reply
	trailer bool // a chunked body's trailer holds a field
}

func judge(reply []byte) (v verdict) {
	rd := bytes.NewReader(reply)
	br := bufio.NewReaderSize(rd, 4<<10)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err == nil && resp.StatusCode < 200 {
		err = errors.New("a 1xx reply")
	}
	if v.err = err; err != nil {
		return v
	}
	v.status = resp.StatusCode
	v.body, v.bodyErr = io.ReadAll(resp.Body)
	v.clean = v.bodyErr == nil && !resp.Close
	v.more = br.Buffered() > 0 || rd.Len() > 0
	for _, values := range resp.Trailer {
		v.trailer = v.trailer || len(values) > 0
	}
	return v
}
