package gearregistry

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/wire"
)

func TestQueryBatchRoundTrip(t *testing.T) {
	r := New(Options{})
	fps, _ := seedObjects(t, r, 4)
	missing := hashing.FingerprintBytes([]byte("never uploaded"))

	mixed := []hashing.Fingerprint{fps[0], missing, fps[2], fps[3], missing}
	present, err := r.QueryBatch(mixed)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true, false}
	for i := range want {
		if present[i] != want[i] {
			t.Errorf("verdict %d = %v, want %v", i, present[i], want[i])
		}
	}

	// Empty batch is a no-op.
	if present, err := r.QueryBatch(nil); err != nil || len(present) != 0 {
		t.Errorf("empty batch: %v verdicts, err %v", present, err)
	}

	// Malformed fingerprints fail the whole batch.
	if _, err := r.QueryBatch([]hashing.Fingerprint{fps[0], "zzzz"}); !errors.Is(err, hashing.ErrMalformed) {
		t.Errorf("malformed: err = %v, want ErrMalformed", err)
	}
}

func TestHTTPQueryBatchRoundTrip(t *testing.T) {
	reg := New(Options{Compress: true})
	fps, _ := seedObjects(t, reg, 5)
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())

	missing := hashing.FingerprintBytes([]byte("absent object"))
	ask := []hashing.Fingerprint{fps[0], missing, fps[4]}
	present, err := c.QueryBatch(ask)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if present[i] != want[i] {
			t.Errorf("verdict %d = %v, want %v", i, present[i], want[i])
		}
	}

	// Empty set never touches the wire.
	if present, err := c.QueryBatch(nil); err != nil || present != nil {
		t.Errorf("empty = %v/%v", present, err)
	}
}

// TestHTTPQueryBatchGzipFraming drives a fingerprint set big enough to
// cross the gzip threshold in both directions and verifies the framing
// survives: hex fingerprint lines compress well, so both bodies shrink.
func TestHTTPQueryBatchGzipFraming(t *testing.T) {
	reg := New(Options{})
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())

	var ask []hashing.Fingerprint
	var wantPresent []bool
	for i := 0; i < 200; i++ {
		data := []byte(fmt.Sprintf("object %d", i))
		fp := hashing.FingerprintBytes(data)
		if i%2 == 0 {
			if err := reg.Upload(fp, data); err != nil {
				t.Fatal(err)
			}
		}
		ask = append(ask, fp)
		wantPresent = append(wantPresent, i%2 == 0)
	}
	present, err := c.QueryBatch(ask)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantPresent {
		if present[i] != wantPresent[i] {
			t.Fatalf("verdict %d = %v, want %v", i, present[i], wantPresent[i])
		}
	}
}

func TestHTTPQueryBatchErrors(t *testing.T) {
	reg := New(Options{})
	fps, _ := seedObjects(t, reg, 1)
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/gear/querybatch", "text/plain",
		strings.NewReader("zzzz\n"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fp: status %d, want 400", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/gear/querybatch")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	// A garbage gzip frame is rejected, not crashed on.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/gear/querybatch",
		strings.NewReader(string(fps[0])+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.EncodingHeader, "gzip")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad gzip frame: status %d, want 400", resp.StatusCode)
	}
}

// A 2xx reply that is not what the verb answers is an ErrBadReply from
// the verbs whose reply is read whole, as it is from the streamed ones.
func TestMalformedTextReplyIsBadReply(t *testing.T) {
	fp := hashing.FingerprintBytes([]byte("x"))
	if _, err := cannedClient(nil, []byte("no verdicts here\n")).QueryBatch([]hashing.Fingerprint{fp}); !errors.Is(err, wire.ErrBadReply) {
		t.Errorf("QueryBatch: err = %v, want ErrBadReply", err)
	}
	if _, _, err := cannedClient(nil, []byte("swept\n")).GC(nil); !errors.Is(err, wire.ErrBadReply) {
		t.Errorf("GC: err = %v, want ErrBadReply", err)
	}
}

func TestRetryStoreQueryBatch(t *testing.T) {
	reg := New(Options{})
	fps, _ := seedObjects(t, reg, 3)
	missing := hashing.FingerprintBytes([]byte("nope"))
	ask := append(fps[:2:2], missing)

	// RetryStore forwards and retries.
	flaky := &flakyQueryBatchStore{Store: reg, failures: 2}
	rs, err := NewRetryStore(flaky, 3)
	if err != nil {
		t.Fatal(err)
	}
	present, err := rs.QueryBatch(ask)
	if err != nil {
		t.Fatal(err)
	}
	if !present[0] || !present[1] || present[2] {
		t.Errorf("verdicts = %v", present)
	}
	if rs.Retries() == 0 {
		t.Error("expected retries to be spent")
	}
}

// flakyQueryBatchStore fails the first N QueryBatch calls transiently.
type flakyQueryBatchStore struct {
	Store
	failures int
}

func (f *flakyQueryBatchStore) QueryBatch(fps []hashing.Fingerprint) ([]bool, error) {
	if f.failures > 0 {
		f.failures--
		return nil, errors.New("transient querybatch failure")
	}
	return f.Store.QueryBatch(fps)
}
