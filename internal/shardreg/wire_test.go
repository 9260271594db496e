package shardreg

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
)

func TestRoutedRequestRoundTrip(t *testing.T) {
	fps := ringFps(5)
	for _, verb := range []string{VerbQuery, VerbDownload} {
		in := RoutedRequest{Shard: "shard00", Verb: verb, Fps: fps}
		out, err := ParseRoutedRequest(EncodeRoutedRequest(in))
		if err != nil {
			t.Fatal(err)
		}
		if out.Shard != in.Shard || out.Verb != in.Verb || len(out.Fps) != len(in.Fps) {
			t.Fatalf("round trip = %+v", out)
		}
		for i := range fps {
			if out.Fps[i] != fps[i] {
				t.Fatalf("fp %d = %s, want %s", i, out.Fps[i], fps[i])
			}
		}
	}
	// Empty batches frame fine.
	if _, err := ParseRoutedRequest(EncodeRoutedRequest(RoutedRequest{Shard: "s", Verb: VerbQuery})); err != nil {
		t.Fatal(err)
	}
}

func TestParseRoutedRequestRejects(t *testing.T) {
	fp := string(ringFps(1)[0])
	for _, bad := range []string{
		"",
		"gear-shard s query\n",                      // missing count
		"gear-shard s query 1\n",                    // count without fingerprints
		"wrong-magic s query 0\n",                   // bad magic
		"gear-shard s steal 0\n",                    // unknown verb
		"gear-shard bad!id query 0\n",               // bad shard id
		"gear-shard s query -1\n",                   // negative count
		"gear-shard s query 1\nzzzz\n",              // malformed fingerprint
		"gear-shard s query 0\ntrailing\n",          // trailing bytes
		"gear-shard s query 99999999999999999999\n", // overflow count
		// Forms the shared codec would read but the encoder never writes.
		"gear-shard s query +1\n" + fp + "\n",  // non-canonical count
		"gear-shard s query 01\n" + fp + "\n",  // non-canonical count
		"gear-shard s query 2\n" + fp + "\n",   // count disagrees with the list
		"gear-shard\ts query 1\n" + fp + "\n",  // tab
		"gear-shard s  query 1\n" + fp + "\n",  // doubled space
		"gear-shard s query 1\n " + fp + "\n",  // indented fingerprint
		"gear-shard s query 1\n\n" + fp + "\n", // blank line
		"gear-shard s query 1\n" + fp + "\n\n", // trailing newline
		"gear-shard s query 1\n" + fp,          // missing final newline
	} {
		if _, err := ParseRoutedRequest([]byte(bad)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("ParseRoutedRequest(%q) err = %v, want ErrBadFrame", bad, err)
		}
	}
	good := "gear-shard s query 1\n" + fp + "\n"
	if _, err := ParseRoutedRequest([]byte(good)); err != nil {
		t.Fatalf("well-formed request rejected: %v", err)
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	fps := ringFps(4)
	present := []bool{true, false, true, false}
	shard, gotFps, gotPresent, err := ParseQueryResponse(EncodeQueryResponse("shard01", fps, present))
	if err != nil {
		t.Fatal(err)
	}
	if shard != "shard01" || len(gotFps) != 4 {
		t.Fatalf("shard %q, %d fps", shard, len(gotFps))
	}
	for i := range fps {
		if gotFps[i] != fps[i] || gotPresent[i] != present[i] {
			t.Fatalf("entry %d = %s/%v, want %s/%v", i, gotFps[i], gotPresent[i], fps[i], present[i])
		}
	}
}

func TestDownloadResponseRoundTrip(t *testing.T) {
	fps := ringFps(3)
	payloads := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte("x"), 999)}
	shard, gotFps, gotPayloads, err := ParseDownloadResponse(EncodeDownloadResponse("shard02", fps, payloads))
	if err != nil {
		t.Fatal(err)
	}
	if shard != "shard02" {
		t.Fatalf("shard = %q", shard)
	}
	for i := range fps {
		if gotFps[i] != fps[i] || !bytes.Equal(gotPayloads[i], payloads[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	// A verb mix-up between the response parsers is detected.
	if _, _, _, err := ParseQueryResponse(EncodeDownloadResponse("s", fps, payloads)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("download frame accepted as query response: %v", err)
	}
	if _, _, _, err := ParseDownloadResponse(EncodeQueryResponse("s", fps, []bool{true, true, true})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("query frame accepted as download response: %v", err)
	}
}

// The HTTP front-end routes shard-addressed batches and maps routing
// errors onto status codes: 404 unknown shard, 503 killed shard, 400
// malformed framing.
func TestHandlerRouting(t *testing.T) {
	c := newCluster(t, 3, 2, Options{})
	objs := corpus(t, 10)
	uploadAll(t, c, objs)
	var fp hashing.Fingerprint
	for f := range objs {
		fp = f
		break
	}
	target := c.Replicas(fp)[0]
	h := NewHandler(c)

	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard", bytes.NewReader(body)))
		return rec
	}

	// Query against the owning shard.
	rec := post(EncodeRoutedRequest(RoutedRequest{Shard: target, Verb: VerbQuery, Fps: []hashing.Fingerprint{fp}}))
	if rec.Code != http.StatusOK {
		t.Fatalf("query status = %d: %s", rec.Code, rec.Body)
	}
	shard, fps, present, err := ParseQueryResponse(rec.Body.Bytes())
	if err != nil || shard != target || !present[0] || fps[0] != fp {
		t.Fatalf("query response %q/%v/%v (err %v)", shard, fps, present, err)
	}

	// Download round trips payload bytes.
	rec = post(EncodeRoutedRequest(RoutedRequest{Shard: target, Verb: VerbDownload, Fps: []hashing.Fingerprint{fp}}))
	if rec.Code != http.StatusOK {
		t.Fatalf("download status = %d: %s", rec.Code, rec.Body)
	}
	_, _, payloads, err := ParseDownloadResponse(rec.Body.Bytes())
	if err != nil || !bytes.Equal(payloads[0], objs[fp]) {
		t.Fatalf("download payload mismatch (err %v)", err)
	}

	// Unknown shard -> 404.
	rec = post(EncodeRoutedRequest(RoutedRequest{Shard: "ghost", Verb: VerbQuery, Fps: []hashing.Fingerprint{fp}}))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown shard status = %d", rec.Code)
	}
	// Killed shard -> 503.
	if err := c.KillShard(target); err != nil {
		t.Fatal(err)
	}
	rec = post(EncodeRoutedRequest(RoutedRequest{Shard: target, Verb: VerbQuery, Fps: []hashing.Fingerprint{fp}}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("killed shard status = %d", rec.Code)
	}
	// Malformed framing -> 400.
	if rec := post([]byte("not a frame")); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed frame status = %d", rec.Code)
	}
	// Wrong method / path.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/shard", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/other", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("bad path status = %d", rec.Code)
	}
}
