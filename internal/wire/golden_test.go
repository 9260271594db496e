package wire_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/peer"
	"github.com/gear-image/gear/internal/prefetch"
	"github.com/gear-image/gear/internal/registry"
)

// The wire compatibility golden. testdata/<protocol>.golden holds one
// exchange per scenario below — request line, Content-Type and X-Gear-*
// headers and body, then the response's status, same headers and body —
// captured from the hand-rolled handlers and clients this package
// replaced. TestGolden replays every recorded request against today's
// handler and every client call against the recorded response, and
// demands byte equality both ways: a reordered header line, a reworded
// error body or a changed status fails it.
//
// -update rewrites the files from the code in this checkout. Doing so
// declares a wire change; the diff of testdata is that change.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this checkout's handlers and clients")

// exchange is one request and its response as they crossed the wire.
type exchange struct {
	method, uri string
	reqHeader   []string // "Name: value", sorted
	reqBody     []byte
	status      int
	respHeader  []string
	respBody    []byte
	// called reports a client-driven scenario, and ok that the client
	// call returned no error.
	called, ok bool
}

// wireHeaders keeps the headers the protocols define, and how the body
// is delimited: every reply is sized, none chunked.
func wireHeaders(h http.Header) []string {
	var out []string
	for name, vals := range h {
		if name == "Content-Type" || name == "Content-Length" || name == "Transfer-Encoding" || strings.HasPrefix(name, "X-Gear-") {
			out = append(out, name+": "+strings.Join(vals, ","))
		}
	}
	sort.Strings(out)
	return out
}

// tap records the one exchange a scenario makes.
type tap struct {
	got []exchange
}

func (tp *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	ex := exchange{method: req.Method, uri: req.URL.RequestURI(), reqHeader: wireHeaders(req.Header)}
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		_ = req.Body.Close()
		ex.reqBody = body
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	// net/http lifts the transfer encoding out of the header map.
	delimited := resp.Header.Clone()
	if len(resp.TransferEncoding) > 0 {
		delimited.Set("Transfer-Encoding", strings.Join(resp.TransferEncoding, ","))
	}
	ex.status, ex.respHeader, ex.respBody = resp.StatusCode, wireHeaders(delimited), body
	tp.got = append(tp.got, ex)
	return resp, nil
}

// scenario is one exchange to pin: either a client call, or a raw
// request for what no client sends (wrong methods, unknown routes,
// hand-damaged bodies).
type scenario struct {
	name    string
	fixture func(t *testing.T) http.Handler
	call    func(base string, hc *http.Client) error

	method, uri string
	header      map[string]string
	body        []byte
}

// run performs sc against base through hc and returns what crossed.
func (sc scenario) run(t *testing.T, base string) exchange {
	t.Helper()
	tp := &tap{}
	hc := &http.Client{Transport: tp}
	var ok bool
	if sc.call != nil {
		ok = sc.call(base, hc) == nil
	} else {
		req, err := http.NewRequest(sc.method, base+sc.uri, bytes.NewReader(sc.body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range sc.header {
			req.Header.Set(k, v)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
	}
	if len(tp.got) != 1 {
		t.Fatalf("%s: %d exchanges, want exactly 1", sc.name, len(tp.got))
	}
	ex := tp.got[0]
	ex.called, ex.ok = sc.call != nil, ok
	return ex
}

func (ex exchange) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "> %s %s\n", ex.method, ex.uri)
	for _, h := range ex.reqHeader {
		fmt.Fprintf(&b, "> %s\n", h)
	}
	fmt.Fprintf(&b, "> %s\n", strconv.Quote(string(ex.reqBody)))
	fmt.Fprintf(&b, "< %d\n", ex.status)
	for _, h := range ex.respHeader {
		fmt.Fprintf(&b, "< %s\n", h)
	}
	fmt.Fprintf(&b, "< %s\n", strconv.Quote(string(ex.respBody)))
	if ex.called {
		fmt.Fprintf(&b, "= ok %v\n", ex.ok)
	}
	return b.String()
}

// parseGolden reads a golden file back into exchanges by name.
func parseGolden(t *testing.T, data []byte) map[string]exchange {
	t.Helper()
	out := make(map[string]exchange)
	for _, block := range strings.Split(string(data), "### ")[1:] {
		lines := strings.Split(strings.TrimRight(block, "\n"), "\n")
		name := lines[0]
		var ex exchange
		var req, resp []string
		for _, line := range lines[1:] {
			switch {
			case strings.HasPrefix(line, "> "):
				req = append(req, line[2:])
			case strings.HasPrefix(line, "< "):
				resp = append(resp, line[2:])
			case strings.HasPrefix(line, "= ok "):
				ex.called, ex.ok = true, line == "= ok true"
			case line != "":
				t.Fatalf("golden %s: stray line %q", name, line)
			}
		}
		if len(req) < 2 || len(resp) < 2 {
			t.Fatalf("golden %s: truncated block", name)
		}
		ex.method, ex.uri, _ = strings.Cut(req[0], " ")
		ex.reqHeader = req[1 : len(req)-1]
		ex.reqBody = unquote(t, req[len(req)-1])
		ex.status, _ = strconv.Atoi(resp[0])
		ex.respHeader = resp[1 : len(resp)-1]
		ex.respBody = unquote(t, resp[len(resp)-1])
		out[name] = ex
	}
	return out
}

func unquote(t *testing.T, s string) []byte {
	t.Helper()
	out, err := strconv.Unquote(s)
	if err != nil {
		t.Fatalf("golden body %s: %v", s, err)
	}
	if out == "" {
		return nil
	}
	return []byte(out)
}

func TestGolden(t *testing.T) {
	for protocol, scenarios := range protocols() {
		t.Run(protocol, func(t *testing.T) {
			file := filepath.Join("testdata", protocol+".golden")
			if *update {
				var out strings.Builder
				for _, sc := range scenarios {
					srv := httptest.NewServer(sc.fixture(t))
					fmt.Fprintf(&out, "### %s\n%s\n", sc.name, sc.run(t, srv.URL))
					srv.Close()
				}
				if err := os.WriteFile(file, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			golden := parseGolden(t, data)
			if len(golden) != len(scenarios) {
				t.Errorf("%d recorded exchanges, %d scenarios", len(golden), len(scenarios))
			}
			for _, sc := range scenarios {
				want, ok := golden[sc.name]
				if !ok {
					t.Errorf("%s: not in %s", sc.name, file)
					continue
				}
				// The recorded request against today's handler.
				srv := httptest.NewServer(sc.fixture(t))
				replay := scenario{name: sc.name, method: want.method, uri: want.uri, body: want.reqBody, header: map[string]string{}}
				for _, h := range want.reqHeader {
					k, v, _ := strings.Cut(h, ": ")
					replay.header[k] = v
				}
				got := replay.run(t, srv.URL)
				srv.Close()
				got.called, got.ok = want.called, want.ok
				if got.String() != want.String() {
					t.Errorf("%s: handler answers differently\n--- recorded\n%s--- now\n%s", sc.name, want, got)
				}
				if sc.call == nil {
					// A raw scenario's request is part of the table: pin it.
					if sc.method != want.method || sc.uri != want.uri || !bytes.Equal(sc.body, want.reqBody) {
						t.Errorf("%s: scenario request differs from the recorded one", sc.name)
					}
					continue
				}
				// Today's client against the recorded response.
				stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					for _, h := range want.respHeader {
						k, v, _ := strings.Cut(h, ": ")
						w.Header().Set(k, v)
					}
					w.WriteHeader(want.status)
					_, _ = w.Write(want.respBody)
				}))
				sent := sc.run(t, stub.URL)
				stub.Close()
				if sent.String() != want.String() {
					t.Errorf("%s: client speaks differently\n--- recorded\n%s--- now\n%s", sc.name, want, sent)
				}
			}
		})
	}
}

// Fixture content. Everything is derived from fixed strings so the
// recorded bytes are reproducible.
var (
	objA      = []byte("alpha: " + strings.Repeat("gear file content ", 8))
	objB      = []byte("beta")
	fpA       = hashing.FingerprintBytes(objA)
	fpB       = hashing.FingerprintBytes(objB)
	fpMissing = hashing.FingerprintBytes([]byte("never uploaded"))
	fpBad     = hashing.Fingerprint("not-a-fingerprint")
)

// bulk is a fingerprint set big enough that querybatch gzip-frames both
// its request and its response.
func bulk() []hashing.Fingerprint {
	fps := []hashing.Fingerprint{fpA}
	for i := 0; i < 48; i++ {
		fps = append(fps, hashing.FingerprintBytes([]byte(fmt.Sprintf("bulk-%d", i))))
	}
	return fps
}

func gearFixture(compress bool) func(*testing.T) http.Handler {
	return func(t *testing.T) http.Handler {
		reg := gearregistry.New(gearregistry.Options{Compress: compress})
		for _, obj := range [][]byte{objA, objB} {
			if err := reg.Upload(hashing.FingerprintBytes(obj), obj); err != nil {
				t.Fatal(err)
			}
		}
		return gearregistry.NewHandler(reg)
	}
}

func peerFixture(t *testing.T) http.Handler {
	c, err := cache.New(0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range [][]byte{objA, objB} {
		if _, err := c.Put(hashing.FingerprintBytes(obj), obj); err != nil {
			t.Fatal(err)
		}
	}
	return gearregistry.NewPoolHandler(peer.NewServer("node0", c))
}

func trackerFixture(t *testing.T) http.Handler {
	tr := peer.NewTracker()
	if err := tr.Announce("node0", fpA, fpB); err != nil {
		t.Fatal(err)
	}
	if err := tr.Announce("node1", fpA); err != nil {
		t.Fatal(err)
	}
	tr.ReportServed(3, 4096, 2, 1024)
	return peer.NewTrackerHandler(tr)
}

const profileRef = "gear/nginx:v01"

func libraryFixture(t *testing.T) http.Handler {
	lib := prefetch.NewLibrary()
	p := &prefetch.Profile{ImageRef: profileRef, Entries: []prefetch.Entry{
		{Fingerprint: fpA, Size: int64(len(objA))},
		{Fingerprint: fpB, Size: int64(len(objB))},
	}}
	if err := lib.Put(p); err != nil {
		t.Fatal(err)
	}
	lib.PutRaw("gear/broken:v01", []byte("not a profile"))
	return prefetch.NewLibraryHandler(lib)
}

var (
	blob       = []byte("layer tarball bytes")
	blobDigest = hashing.DigestBytes(blob)
	noBlob     = hashing.DigestBytes([]byte("never pushed"))
	manifest   = &imagefmt.Manifest{Name: "gear/nginx", Tag: "v01",
		Layers: []hashing.Digest{blobDigest}, LayerSizes: []int64{int64(len(blob))}}
)

func dockerFixture(t *testing.T) http.Handler {
	reg := registry.New()
	if err := reg.PutBlob(blobDigest, blob); err != nil {
		t.Fatal(err)
	}
	if err := reg.PutManifest(manifest); err != nil {
		t.Fatal(err)
	}
	return registry.NewHandler(reg)
}

// gearCall adapts a gearregistry.Client call to a scenario.
func gearCall(f func(c *gearregistry.Client) error) func(string, *http.Client) error {
	return func(base string, hc *http.Client) error { return f(gearregistry.NewClient(base, hc)) }
}

func trackerCall(f func(c *peer.TrackerClient) error) func(string, *http.Client) error {
	return func(base string, hc *http.Client) error { return f(peer.NewTrackerClient(base, hc)) }
}

func libraryCall(f func(c *prefetch.LibraryClient) error) func(string, *http.Client) error {
	return func(base string, hc *http.Client) error { return f(prefetch.NewLibraryClient(base, hc)) }
}

func dockerCall(f func(c *registry.Client) error) func(string, *http.Client) error {
	return func(base string, hc *http.Client) error { return f(registry.NewClient(base, hc)) }
}

// readVerbs are the scenarios the Gear Registry and a peer server
// share: the peer serves the registry's query/download/batch verbs.
func readVerbs(fixture func(*testing.T) http.Handler) []scenario {
	return []scenario{
		{name: "query/present", fixture: fixture, call: gearCall(func(c *gearregistry.Client) error { _, err := c.Query(fpA); return err })},
		{name: "query/absent-404", fixture: fixture, call: gearCall(func(c *gearregistry.Client) error { _, err := c.Query(fpMissing); return err })},
		{name: "query/malformed-400", fixture: fixture, call: gearCall(func(c *gearregistry.Client) error { _, err := c.Query(fpBad); return err })},
		{name: "query/post-405", fixture: fixture, method: "POST", uri: "/gear/query/" + string(fpA)},
		{name: "download/ok", fixture: fixture, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.Download(fpA); return err })},
		{name: "download/missing-404", fixture: fixture, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.Download(fpMissing); return err })},
		{name: "download/malformed-400", fixture: fixture, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.Download(fpBad); return err })},
		{name: "download/post-405", fixture: fixture, method: "POST", uri: "/gear/download/" + string(fpA)},
		{name: "batch/ok", fixture: fixture, call: gearCall(func(c *gearregistry.Client) error {
			_, _, err := c.DownloadBatch([]hashing.Fingerprint{fpB, fpA, fpB})
			return err
		})},
		{name: "batch/missing-404", fixture: fixture, call: gearCall(func(c *gearregistry.Client) error {
			_, _, err := c.DownloadBatch([]hashing.Fingerprint{fpA, fpMissing, fpBad})
			return err
		})},
		{name: "batch/malformed-400", fixture: fixture, call: gearCall(func(c *gearregistry.Client) error {
			_, _, err := c.DownloadBatch([]hashing.Fingerprint{fpA, fpBad, fpMissing})
			return err
		})},
		{name: "batch/blank-lines", fixture: fixture, method: "POST", uri: "/gear/batch",
			body: []byte("\n  " + string(fpB) + "  \n\n")},
		{name: "batch/get-405", fixture: fixture, method: "GET", uri: "/gear/batch"},
		{name: "route/unknown-verb-404", fixture: fixture, method: "GET", uri: "/gear/steal/" + string(fpA)},
		{name: "route/no-argument-404", fixture: fixture, method: "GET", uri: "/gear/query/"},
		{name: "route/no-argument-wrong-method-404", fixture: fixture, method: "POST", uri: "/gear/query/"},
		{name: "route/no-argument-download-wrong-method-404", fixture: fixture, method: "PUT", uri: "/gear/download/"},
		{name: "route/outside-404", fixture: fixture, method: "GET", uri: "/other"},
	}
}

func protocols() map[string][]scenario {
	gz, raw := gearFixture(true), gearFixture(false)
	gear := append(readVerbs(gz),
		scenario{name: "download/raw-pool", fixture: raw, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.Download(fpA); return err })},
		scenario{name: "batch/raw-pool", fixture: raw, call: gearCall(func(c *gearregistry.Client) error {
			_, _, err := c.DownloadBatch([]hashing.Fingerprint{fpA, fpB})
			return err
		})},
		scenario{name: "upload/created", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { return c.Upload(fpMissing, []byte("never uploaded")) })},
		scenario{name: "upload/mismatch-400", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { return c.Upload(fpMissing, []byte("other bytes")) })},
		scenario{name: "upload/malformed-400", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { return c.Upload(fpBad, []byte("x")) })},
		scenario{name: "upload/get-405", fixture: gz, method: "GET", uri: "/gear/upload/" + string(fpA)},
		scenario{name: "upload/no-argument-404", fixture: gz, method: "PUT", uri: "/gear/upload/", body: objB},
		scenario{name: "upload/no-argument-wrong-method-404", fixture: gz, method: "GET", uri: "/gear/upload/"},
		scenario{name: "querybatch/plain", fixture: gz, call: gearCall(func(c *gearregistry.Client) error {
			_, err := c.QueryBatch([]hashing.Fingerprint{fpA, fpMissing, fpB})
			return err
		})},
		scenario{name: "querybatch/gzip-framed", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { _, err := c.QueryBatch(bulk()); return err })},
		scenario{name: "querybatch/malformed-400", fixture: gz, call: gearCall(func(c *gearregistry.Client) error {
			_, err := c.QueryBatch([]hashing.Fingerprint{fpA, fpBad})
			return err
		})},
		scenario{name: "querybatch/bad-gzip-400", fixture: gz, method: "POST", uri: "/gear/querybatch",
			header: map[string]string{"X-Gear-Encoding": "gzip"}, body: []byte("not gzip")},
		scenario{name: "querybatch/get-405", fixture: gz, method: "GET", uri: "/gear/querybatch"},
		scenario{name: "gc/keep-one", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.GC([]hashing.Fingerprint{fpA}); return err })},
		scenario{name: "gc/malformed-400", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.GC([]hashing.Fingerprint{fpA, fpBad}); return err })},
		scenario{name: "gc/get-405", fixture: gz, method: "GET", uri: "/gear/gc"},
		scenario{name: "range/ok", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.DownloadRange(fpA, 7, 9); return err })},
		scenario{name: "range/past-end-416", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.DownloadRange(fpA, 7, 9000); return err })},
		scenario{name: "range/missing-404", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.DownloadRange(fpMissing, 0, 1); return err })},
		scenario{name: "range/malformed-400", fixture: gz, call: gearCall(func(c *gearregistry.Client) error { _, _, err := c.DownloadRange(fpBad, 0, 1); return err })},
		scenario{name: "range/bad-numbers-404", fixture: gz, method: "GET", uri: "/gear/range/" + string(fpA) + "/x/1"},
		scenario{name: "range/post-405", fixture: gz, method: "POST", uri: "/gear/range/" + string(fpA) + "/0/1"},
		scenario{name: "range/no-argument-404", fixture: gz, method: "GET", uri: "/gear/range/"},
		scenario{name: "range/no-argument-wrong-method-405", fixture: gz, method: "POST", uri: "/gear/range/"},
	)

	peerSrv := append(readVerbs(peerFixture),
		scenario{name: "upload/refused-405", fixture: peerFixture, call: gearCall(func(c *gearregistry.Client) error { return c.Upload(fpA, objA) })},
		scenario{name: "upload/refused-any-method-405", fixture: peerFixture, method: "GET", uri: "/gear/upload/" + string(fpA)},
		scenario{name: "upload/no-argument-404", fixture: peerFixture, method: "PUT", uri: "/gear/upload/", body: objB},
		scenario{name: "route/gc-404", fixture: peerFixture, method: "POST", uri: "/gear/gc"},
		scenario{name: "route/querybatch-404", fixture: peerFixture, method: "POST", uri: "/gear/querybatch", body: []byte(string(fpA) + "\n")},
		scenario{name: "route/range-404", fixture: peerFixture, method: "GET", uri: "/gear/range/" + string(fpA) + "/0/1"},
	)

	tracker := []scenario{
		{name: "announce/ok", fixture: trackerFixture, call: trackerCall(func(c *peer.TrackerClient) error { return c.Announce("node2", fpA, fpMissing) })},
		{name: "announce/bad-holder-400", fixture: trackerFixture, call: trackerCall(func(c *peer.TrackerClient) error { return c.Announce("two words", fpA) })},
		{name: "announce/malformed-400", fixture: trackerFixture, call: trackerCall(func(c *peer.TrackerClient) error { return c.Announce("node2", fpBad) })},
		{name: "announce/empty-body-400", fixture: trackerFixture, method: "POST", uri: "/peer/announce"},
		{name: "announce/get-405", fixture: trackerFixture, method: "GET", uri: "/peer/announce"},
		{name: "withdraw/ok", fixture: trackerFixture, call: trackerCall(func(c *peer.TrackerClient) error { return c.Withdraw("node1", fpA) })},
		{name: "withdraw/get-405", fixture: trackerFixture, method: "GET", uri: "/peer/withdraw"},
		{name: "locate/holders-and-none", fixture: trackerFixture, call: trackerCall(func(c *peer.TrackerClient) error {
			_, err := c.LocateBatch([]hashing.Fingerprint{fpA, fpMissing, fpB}, "")
			return err
		})},
		{name: "locate/excluding", fixture: trackerFixture, call: trackerCall(func(c *peer.TrackerClient) error {
			_, err := c.LocateBatch([]hashing.Fingerprint{fpA}, "node0")
			return err
		})},
		{name: "locate/malformed-400", fixture: trackerFixture, call: trackerCall(func(c *peer.TrackerClient) error {
			_, err := c.LocateBatch([]hashing.Fingerprint{fpBad}, "")
			return err
		})},
		{name: "locate/get-405", fixture: trackerFixture, method: "GET", uri: "/peer/locate"},
		{name: "served/ok", fixture: trackerFixture, call: trackerCall(func(c *peer.TrackerClient) error { return c.ReportServed(1, 100, 2, 200) })},
		{name: "served/unparsable-400", fixture: trackerFixture, method: "POST", uri: "/peer/served", body: []byte("peer=one/100\n")},
		{name: "served/negative-400", fixture: trackerFixture, method: "POST", uri: "/peer/served", body: []byte("peer=-1/100 registry=2/200\n")},
		{name: "served/get-405", fixture: trackerFixture, method: "GET", uri: "/peer/served"},
		{name: "metrics/ok", fixture: trackerFixture, method: "GET", uri: "/peer/metrics"},
		{name: "metrics/post-405", fixture: trackerFixture, method: "POST", uri: "/peer/metrics"},
		{name: "route/unknown-404", fixture: trackerFixture, method: "POST", uri: "/peer/steal"},
	}

	library := []scenario{
		{name: "list/ok", fixture: libraryFixture, call: libraryCall(func(c *prefetch.LibraryClient) error { _, err := c.List(); return err })},
		{name: "list/post-405", fixture: libraryFixture, method: "POST", uri: "/profile/list"},
		{name: "dump/ok", fixture: libraryFixture, call: libraryCall(func(c *prefetch.LibraryClient) error { _, err := c.Dump(profileRef); return err })},
		{name: "dump/missing-404", fixture: libraryFixture, call: libraryCall(func(c *prefetch.LibraryClient) error { _, err := c.Dump("gear/none:v01"); return err })},
		{name: "dump/corrupt-500", fixture: libraryFixture, call: libraryCall(func(c *prefetch.LibraryClient) error { _, err := c.Dump("gear/broken:v01"); return err })},
		{name: "dump/no-ref-400", fixture: libraryFixture, method: "GET", uri: "/profile/dump/"},
		{name: "dump/no-ref-wrong-method-405", fixture: libraryFixture, method: "POST", uri: "/profile/dump/"},
		{name: "dump/post-405", fixture: libraryFixture, method: "POST", uri: "/profile/dump/" + profileRef},
		{name: "delete/ok", fixture: libraryFixture, call: libraryCall(func(c *prefetch.LibraryClient) error { return c.Delete(profileRef) })},
		{name: "delete/missing-404", fixture: libraryFixture, call: libraryCall(func(c *prefetch.LibraryClient) error { return c.Delete("gear/none:v01") })},
		{name: "delete/get-405", fixture: libraryFixture, method: "GET", uri: "/profile/delete/" + profileRef},
		{name: "metrics/ok", fixture: libraryFixture, method: "GET", uri: "/profile/metrics"},
		{name: "metrics/post-405", fixture: libraryFixture, method: "POST", uri: "/profile/metrics"},
		{name: "route/unknown-404", fixture: libraryFixture, method: "GET", uri: "/profile/steal"},
	}

	other := *manifest
	other.Tag = "v02"
	otherJSON, _ := imagefmt.EncodeManifest(&other)
	docker := []scenario{
		{name: "manifest/put-created", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { return c.PutManifest(&other) })},
		{name: "manifest/put-wrong-reference-400", fixture: dockerFixture, method: "PUT", uri: "/v2/manifests/gear/nginx/v01", body: otherJSON},
		{name: "manifest/put-not-json-400", fixture: dockerFixture, method: "PUT", uri: "/v2/manifests/gear/nginx/v01", body: []byte("{")},
		{name: "manifest/get-ok", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { _, err := c.GetManifest("gear/nginx", "v01"); return err })},
		{name: "manifest/get-missing-404", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { _, err := c.GetManifest("gear/nginx", "v99"); return err })},
		{name: "manifest/no-tag-400", fixture: dockerFixture, method: "GET", uri: "/v2/manifests/nginx"},
		{name: "manifest/no-tag-wrong-method-400", fixture: dockerFixture, method: "POST", uri: "/v2/manifests/nginx"},
		{name: "blob/malformed-wrong-method-400", fixture: dockerFixture, method: "DELETE", uri: "/v2/blobs/sha256:bogus"},
		{name: "manifest/post-405", fixture: dockerFixture, method: "POST", uri: "/v2/manifests/gear/nginx/v01"},
		{name: "manifest/list", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { _, err := c.ListManifests(); return err })},
		{name: "manifest/list-put-405", fixture: dockerFixture, method: "PUT", uri: "/v2/manifests/"},
		{name: "blob/head-present", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { _, err := c.HasBlob(blobDigest); return err })},
		{name: "blob/head-absent-404", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { _, err := c.HasBlob(noBlob); return err })},
		{name: "blob/get-ok", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { _, err := c.GetBlob(blobDigest); return err })},
		{name: "blob/get-missing-404", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { _, err := c.GetBlob(noBlob); return err })},
		{name: "blob/get-malformed-400", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { _, err := c.GetBlob("sha256:bogus"); return err })},
		{name: "blob/put-created", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { return c.PutBlob(noBlob, []byte("never pushed")) })},
		{name: "blob/put-mismatch-400", fixture: dockerFixture, call: dockerCall(func(c *registry.Client) error { return c.PutBlob(noBlob, []byte("other bytes")) })},
		{name: "blob/delete-405", fixture: dockerFixture, method: "DELETE", uri: "/v2/blobs/" + string(blobDigest)},
		{name: "blob/no-digest-400", fixture: dockerFixture, method: "GET", uri: "/v2/blobs/"},
		{name: "blob/no-digest-wrong-method-400", fixture: dockerFixture, method: "DELETE", uri: "/v2/blobs/"},
		{name: "route/unknown-404", fixture: dockerFixture, method: "GET", uri: "/v2/steal"},
	}

	return map[string][]scenario{
		"gearregistry": gear, "peerserver": peerSrv, "tracker": tracker,
		"prefetch": library, "registry": docker,
	}
}
