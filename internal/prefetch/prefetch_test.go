package prefetch

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
)

func sampleProfile(t *testing.T, n int) *Profile {
	t.Helper()
	p := &Profile{ImageRef: "gear/nginx:v01"}
	for i := 0; i < n; i++ {
		p.Entries = append(p.Entries, Entry{
			Fingerprint: hashing.FingerprintBytes([]byte(fmt.Sprintf("file-%d", i))),
			Size:        int64(100 * (i + 1)),
		})
	}
	return p
}

func TestProfileRoundTrip(t *testing.T) {
	p := sampleProfile(t, 7)
	// Include a collision-fallback id, which cannot encode as raw MD5.
	p.Entries = append(p.Entries, Entry{
		Fingerprint: hashing.Fingerprint("d41d8cd98f00b204e9800998ecf8427e-c2"),
		Size:        42,
	})
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
	if got.TotalBytes() != p.TotalBytes() {
		t.Fatalf("total bytes = %d, want %d", got.TotalBytes(), p.TotalBytes())
	}
}

func TestProfileRoundTripEmpty(t *testing.T) {
	p := &Profile{ImageRef: "gear/empty:v01"}
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ImageRef != p.ImageRef || len(got.Entries) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := sampleProfile(t, 5)
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation of a valid encoding must be rejected, never
	// panic, and never yield a partially parsed profile.
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(data))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v is not ErrCorrupt", cut, err)
		}
	}

	// Trailing garbage is rejected too.
	if _, err := Decode(append(append([]byte(nil), data...), 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}

	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	p := sampleProfile(t, 3)
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	skewed := append([]byte(nil), data...)
	skewed[3] = '2' // version byte follows the "GPF" magic
	_, err = Decode(skewed)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: got %v, want ErrVersion", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("version skew misreported as corruption: %v", err)
	}
}

func TestEncodeRejectsDuplicates(t *testing.T) {
	fp := hashing.FingerprintBytes([]byte("dup"))
	p := &Profile{ImageRef: "x:y", Entries: []Entry{
		{Fingerprint: fp, Size: 1},
		{Fingerprint: fp, Size: 2},
	}}
	if _, err := Encode(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate entries: got %v, want ErrCorrupt", err)
	}
}

func TestTruncate(t *testing.T) {
	p := sampleProfile(t, 10)
	half := p.Truncate(0.5)
	if len(half.Entries) != 5 {
		t.Fatalf("half coverage kept %d entries, want 5", len(half.Entries))
	}
	if !reflect.DeepEqual(half.Entries, p.Entries[:5]) {
		t.Fatal("truncation did not keep the head of the access order")
	}
	if n := len(p.Truncate(0).Entries); n != 0 {
		t.Fatalf("zero coverage kept %d entries", n)
	}
	if n := len(p.Truncate(2).Entries); n != 10 {
		t.Fatalf("clamped coverage kept %d entries, want 10", n)
	}
}

func TestRecorderDedupsAndOrders(t *testing.T) {
	r := NewRecorder()
	a := hashing.FingerprintBytes([]byte("a"))
	b := hashing.FingerprintBytes([]byte("b"))
	r.Record(a, 10)
	r.Record(b, 20)
	r.Record(a, 10) // repeat access: ignored
	r.Record(hashing.Fingerprint("not-valid"), 5)
	r.Record(b, -1)
	if r.Len() != 2 {
		t.Fatalf("recorded %d entries, want 2", r.Len())
	}
	p := r.Snapshot("img:v1")
	want := []Entry{{a, 10}, {b, 20}}
	if !reflect.DeepEqual(p.Entries, want) {
		t.Fatalf("snapshot = %+v, want %+v", p.Entries, want)
	}
	// Snapshot is a copy: later records do not mutate it.
	r.Record(hashing.FingerprintBytes([]byte("c")), 30)
	if len(p.Entries) != 2 {
		t.Fatal("snapshot aliases the recorder")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Record(hashing.FingerprintBytes([]byte{byte(i)}), int64(i))
			}
		}()
	}
	wg.Wait()
	if r.Len() != 50 {
		t.Fatalf("recorded %d entries, want 50", r.Len())
	}
}

func TestLibraryRoundTrip(t *testing.T) {
	lib := NewLibrary()
	p := sampleProfile(t, 4)
	if err := lib.Put(p); err != nil {
		t.Fatal(err)
	}
	got, err := lib.Get(p.ImageRef)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("library round trip mismatch: %+v", got)
	}
	infos := lib.List()
	if len(infos) != 1 || infos[0].Entries != 4 || infos[0].Bytes != p.TotalBytes() {
		t.Fatalf("list = %+v", infos)
	}
	if !lib.Delete(p.ImageRef) {
		t.Fatal("delete reported absent")
	}
	if lib.Delete(p.ImageRef) {
		t.Fatal("second delete reported present")
	}
	if _, err := lib.Get(p.ImageRef); !errors.Is(err, ErrNoProfile) {
		t.Fatalf("deleted profile: got %v, want ErrNoProfile", err)
	}
}

func TestLibraryCorruptProfileIsReported(t *testing.T) {
	lib := NewLibrary()
	lib.PutRaw("broken:v1", []byte("GPF1 garbage"))
	if _, err := lib.Get("broken:v1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt profile: got %v, want ErrCorrupt", err)
	}
	infos := lib.List()
	if len(infos) != 1 || infos[0].Entries != -1 {
		t.Fatalf("corrupt profile listing = %+v, want Entries=-1", infos)
	}
}

func TestLibraryHTTP(t *testing.T) {
	lib := NewLibrary()
	p := sampleProfile(t, 6)
	if err := lib.Put(p); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewLibraryHandler(lib))
	defer srv.Close()
	c := NewLibraryClient(srv.URL, nil)

	infos, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Ref != p.ImageRef || infos[0].Entries != 6 ||
		infos[0].Bytes != p.TotalBytes() {
		t.Fatalf("list over HTTP = %+v", infos)
	}

	got, err := c.Dump(p.ImageRef)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("dump over HTTP mismatch:\n got %+v\nwant %+v", got, p)
	}

	if err := c.Delete(p.ImageRef); err != nil {
		t.Fatal(err)
	}
	if len(lib.List()) != 0 {
		t.Fatal("delete over HTTP did not remove the profile")
	}
	if err := c.Delete(p.ImageRef); err == nil {
		t.Fatal("deleting an absent profile succeeded")
	}
	if _, err := c.Dump(p.ImageRef); err == nil {
		t.Fatal("dumping an absent profile succeeded")
	}

	// Wrong methods are rejected.
	resp, err := http.Get(srv.URL + "/profile/delete/x:y")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET delete: status %d", resp.StatusCode)
	}
}

// TestLibraryMetricsEndpoint: /profile/metrics serves the library's
// telemetry snapshot, whose gauges track the stored profile footprint.
func TestLibraryMetricsEndpoint(t *testing.T) {
	lib := NewLibrary()
	if err := lib.Put(&Profile{
		ImageRef: "gear/nginx:v01",
		Entries:  []Entry{{Fingerprint: hashing.FingerprintBytes([]byte("m")), Size: 64}},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewLibraryHandler(lib))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/profile/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.DecodeSnapshot(body)
	if err != nil {
		t.Fatalf("decode /profile/metrics: %v", err)
	}
	if got, held := snap.Gauge("profiles.count"), len(lib.List()); got != int64(held) {
		t.Errorf("profiles.count = %d, library holds %d", got, held)
	}
	if snap.Gauge("profiles.bytes") <= 0 {
		t.Error("profiles.bytes gauge not tracking stored footprint")
	}
}
