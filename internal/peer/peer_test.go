package peer

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/gear-image/gear/internal/cache"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/telemetry"
)

func fpOf(s string) hashing.Fingerprint { return hashing.FingerprintBytes([]byte(s)) }

func newCache(t *testing.T, capacity int64) *cache.Cache {
	t.Helper()
	c, err := cache.New(capacity, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTrackerAnnounceLocateWithdraw(t *testing.T) {
	tr := NewTracker()
	a, b := fpOf("file a"), fpOf("file b")

	if err := tr.Announce("node0", a, b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Announce("node1", a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Announce("node1", a); err != nil { // duplicate: no-op
		t.Fatal(err)
	}
	if err := tr.Announce("", a); err == nil {
		t.Error("empty holder id accepted")
	}
	if err := tr.Announce("node2", hashing.Fingerprint("nothex")); err == nil {
		t.Error("malformed fingerprint accepted")
	}

	// Locate excludes the requester and is deterministic per fingerprint.
	got := tr.Locate(a, "node0")
	if !reflect.DeepEqual(got, []string{"node1"}) {
		t.Errorf("Locate(a, node0) = %v, want [node1]", got)
	}
	first := tr.Locate(a, "")
	if len(first) != 2 {
		t.Fatalf("Locate(a) = %v, want 2 holders", first)
	}
	for i := 0; i < 5; i++ {
		if again := tr.Locate(a, ""); !reflect.DeepEqual(again, first) {
			t.Fatalf("Locate not deterministic: %v then %v", first, again)
		}
	}
	if got := tr.Locate(fpOf("unknown"), ""); len(got) != 0 {
		t.Errorf("Locate(unknown) = %v, want none", got)
	}

	if s := tr.Stats(); s.Fingerprints != 2 || s.Holders != 2 || s.Announces != 3 {
		t.Errorf("stats = %+v, want 2 fingerprints / 2 holders / 3 announces", s)
	}

	if err := tr.Withdraw("node0", a, b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw("node0", a); err != nil { // already gone: no-op
		t.Fatal(err)
	}
	if got := tr.Locate(a, ""); !reflect.DeepEqual(got, []string{"node1"}) {
		t.Errorf("after withdraw Locate(a) = %v, want [node1]", got)
	}
	if s := tr.Stats(); s.Fingerprints != 1 || s.Holders != 1 || s.Withdraws != 2 {
		t.Errorf("stats = %+v, want 1 fingerprint / 1 holder / 2 withdraws", s)
	}
}

func TestTrackerHooksMirrorCacheMembership(t *testing.T) {
	tr := NewTracker()
	c := newCache(t, 64)
	c.SetHooks(tr.Hooks("node0"))

	var fps []hashing.Fingerprint
	for i := 0; i < 8; i++ {
		data := []byte(fmt.Sprintf("object %02d padpad", i)) // 16 B each
		fp := hashing.FingerprintBytes(data)
		fps = append(fps, fp)
		if _, err := c.Put(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, fp := range fps {
		cached := c.Contains(fp)
		located := len(tr.Locate(fp, "")) > 0
		if cached != located {
			t.Errorf("%s: cached=%v but tracker located=%v", fp, cached, located)
		}
	}
	if s := tr.Stats(); s.Withdraws == 0 {
		t.Error("capacity pressure produced no withdraws")
	}
}

func TestServerServesAndAccounts(t *testing.T) {
	c := newCache(t, 0)
	data := []byte("served by a neighbour")
	fp := hashing.FingerprintBytes(data)
	if _, err := c.Put(fp, data); err != nil {
		t.Fatal(err)
	}
	s := NewServer("node0", c, ServerOptions{})

	if ok, err := s.Query(fp); err != nil || !ok {
		t.Errorf("Query(%s) = %v, %v; want true", fp, ok, err)
	}
	if ok, err := s.Query(fpOf("absent")); err != nil || ok {
		t.Errorf("Query(absent) = %v, %v; want false", ok, err)
	}
	if _, err := s.Query(hashing.Fingerprint("nothex")); err == nil {
		t.Error("malformed query accepted")
	}

	got, wire, err := s.Download(fp)
	if err != nil || string(got) != string(data) || wire != int64(len(data)) {
		t.Errorf("Download = %q/%d/%v, want %q/%d", got, wire, err, data, len(data))
	}
	if _, _, err := s.Download(fpOf("absent")); !errors.Is(err, gearregistry.ErrNotFound) {
		t.Errorf("Download(absent) err = %v, want ErrNotFound", err)
	}

	// Stored — what the HTTP verbs, batches included, are served from —
	// is the same lookup and accounts the same.
	for i := 0; i < 2; i++ {
		if o, err := s.Stored(fp); err != nil || string(o.Stored) != string(data) || o.Size != int64(len(data)) {
			t.Fatalf("Stored = %+v, %v", o, err)
		}
	}
	if _, err := s.Stored(fpOf("absent")); !errors.Is(err, gearregistry.ErrNotFound) {
		t.Errorf("Stored(absent) err = %v, want ErrNotFound", err)
	}

	st := s.Stats()
	if st.ObjectsServed != 3 || st.BytesServed != 3*int64(len(data)) {
		t.Errorf("stats = %+v, want 3 objects / %d bytes", st, 3*len(data))
	}
	if st.MaxConcurrent != DefaultMaxConcurrent {
		t.Errorf("MaxConcurrent = %d, want default %d", st.MaxConcurrent, DefaultMaxConcurrent)
	}
}

// TestServerCompressedWireMatchesRegistry pins the invariant the fleet
// experiment's byte-parity check relies on: a compressing peer serves
// exactly the wire bytes a compressing registry would for the same file.
func TestServerCompressedWireMatchesRegistry(t *testing.T) {
	data := bytes.Repeat([]byte("the same file costs the same wire bytes wherever it is served from\n"), 20)
	fp := hashing.FingerprintBytes(data)

	reg := gearregistry.New(gearregistry.Options{Compress: true})
	if err := reg.Upload(fp, data); err != nil {
		t.Fatal(err)
	}
	_, regWire, err := reg.Download(fp)
	if err != nil {
		t.Fatal(err)
	}

	c := newCache(t, 0)
	if _, err := c.Put(fp, data); err != nil {
		t.Fatal(err)
	}
	s := NewServer("node0", c, ServerOptions{Compress: true})
	payload, peerWire, err := s.Download(fp)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(data) {
		t.Error("compressed serve corrupted payload")
	}
	if peerWire != regWire {
		t.Errorf("peer wire = %d, registry wire = %d; must match", peerWire, regWire)
	}
	if peerWire >= int64(len(data)) {
		t.Errorf("wire %d not smaller than payload %d", peerWire, len(data))
	}
}

// TestServerBoundedConcurrency exhausts the serve slots and checks a
// further download waits until one frees up.
func TestServerBoundedConcurrency(t *testing.T) {
	c := newCache(t, 0)
	data := []byte("bounded")
	fp := hashing.FingerprintBytes(data)
	if _, err := c.Put(fp, data); err != nil {
		t.Fatal(err)
	}
	s := NewServer("node0", c, ServerOptions{MaxConcurrent: 2})

	s.acquire()
	s.acquire()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Download(fp)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("download proceeded past the concurrency bound")
	case <-time.After(20 * time.Millisecond):
	}
	s.release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("download never acquired the freed slot")
	}
	s.release()
}

// flakyServer is a FileServer that errors or corrupts on demand.
type flakyServer struct {
	data    map[hashing.Fingerprint][]byte
	corrupt bool
	fail    bool
	calls   int
}

func (f *flakyServer) Download(fp hashing.Fingerprint) ([]byte, int64, error) {
	f.calls++
	if f.fail {
		return nil, 0, errors.New("peer unreachable")
	}
	d, ok := f.data[fp]
	if !ok {
		return nil, 0, gearregistry.ErrNotFound
	}
	if f.corrupt {
		d = append([]byte("corrupted:"), d...)
	}
	return d, int64(len(d)), nil
}

func TestExchangeSkipsBadHoldersAndVerifies(t *testing.T) {
	data := []byte("the payload peers exchange")
	fp := hashing.FingerprintBytes(data)

	tr := NewTracker()
	for _, id := range []string{"dead", "corrupt", "good", "me"} {
		if err := tr.Announce(id, fp); err != nil {
			t.Fatal(err)
		}
	}
	net := NewStaticNetwork()
	dead := &flakyServer{fail: true}
	bad := &flakyServer{data: map[hashing.Fingerprint][]byte{fp: data}, corrupt: true}
	good := &flakyServer{data: map[hashing.Fingerprint][]byte{fp: data}}
	net.Add("dead", dead)
	net.Add("corrupt", bad)
	net.Add("good", good)
	// "me" is announced but absent from the network: also skipped.

	ex := NewExchange("me", tr, net)
	got, wire, ok := ex.FetchPeer(fp)
	if !ok || string(got) != string(data) || wire != int64(len(data)) {
		t.Fatalf("FetchPeer = %q/%d/%v, want payload from the good holder", got, wire, ok)
	}
	if good.calls != 1 {
		t.Errorf("good holder served %d times, want 1", good.calls)
	}
	st := ex.Stats()
	if st.Hits != 1 || st.Objects != 1 || st.Bytes != int64(len(data)) {
		t.Errorf("stats = %+v, want 1 hit / 1 object / %d bytes", st, len(data))
	}
	if st.Corrupt != int64(bad.calls) {
		t.Errorf("corrupt skips = %d, corrupt holder served %d times", st.Corrupt, bad.calls)
	}
	if st.Errored != int64(dead.calls) {
		t.Errorf("errored skips = %d, dead holder called %d times", st.Errored, dead.calls)
	}

	// No holder can serve: miss, never corrupt data.
	if _, _, ok := ex.FetchPeer(fpOf("nobody has this")); ok {
		t.Error("FetchPeer hit on a file nobody holds")
	}
	if st := ex.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

func TestTrackerHTTPRoundTrip(t *testing.T) {
	tr := NewTracker()
	srv := httptest.NewServer(NewTrackerHandler(tr))
	defer srv.Close()
	client := NewTrackerClient(srv.URL, nil)

	a, b := fpOf("http a"), fpOf("http b")
	if err := client.Announce("node0", a, b); err != nil {
		t.Fatal(err)
	}
	if err := client.Announce("node1", a); err != nil {
		t.Fatal(err)
	}
	if err := client.Announce("bad holder", a); err == nil {
		t.Error("holder id with space accepted over HTTP")
	}

	holders, err := client.LocateBatch([]hashing.Fingerprint{a, b, fpOf("absent")}, "node1")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"node0"}, {"node0"}, nil}
	if !reflect.DeepEqual(holders, want) {
		t.Errorf("LocateBatch = %v, want %v", holders, want)
	}
	if got := client.Locate(a, ""); len(got) != 2 {
		t.Errorf("Locate(a) = %v, want both holders", got)
	}

	if err := client.Withdraw("node0", b); err != nil {
		t.Fatal(err)
	}
	if got := client.Locate(b, ""); len(got) != 0 {
		t.Errorf("Locate(b) after withdraw = %v, want none", got)
	}

	if err := client.ReportServed(7, 700, 3, 300); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeerObjects != 7 || stats.PeerBytes != 700 ||
		stats.RegistryObjects != 3 || stats.RegistryBytes != 300 {
		t.Errorf("served split = %+v, want 7/700 peer and 3/300 registry", stats)
	}
	if local := tr.Stats(); local != stats {
		t.Errorf("HTTP stats %+v != in-process stats %+v", stats, local)
	}
}

// TestServerHandlerSpeaksRegistryProtocol drives a stock
// gearregistry.Client against a peer's HTTP export.
func TestServerHandlerSpeaksRegistryProtocol(t *testing.T) {
	c := newCache(t, 0)
	data := bytes.Repeat([]byte("fetched from a peer over the registry wire protocol\n"), 20)
	fp := hashing.FingerprintBytes(data)
	if _, err := c.Put(fp, data); err != nil {
		t.Fatal(err)
	}
	peerSrv := NewServer("node0", c, ServerOptions{Compress: true})
	srv := httptest.NewServer(gearregistry.NewPoolHandler(peerSrv))
	defer srv.Close()
	client := gearregistry.NewClient(srv.URL, nil)

	if ok, err := client.Query(fp); err != nil || !ok {
		t.Errorf("Query = %v, %v; want true", ok, err)
	}
	got, wire, err := client.Download(fp)
	if err != nil || string(got) != string(data) {
		t.Errorf("Download = %q, %v; want the cached payload", got, err)
	}
	if wire >= int64(len(data)) {
		t.Errorf("wire %d not compressed below payload %d", wire, len(data))
	}
	if _, _, err := client.Download(fpOf("absent")); !errors.Is(err, gearregistry.ErrNotFound) {
		t.Errorf("Download(absent) err = %v, want ErrNotFound", err)
	}
	payloads, _, err := client.DownloadBatch([]hashing.Fingerprint{fp})
	if err != nil || len(payloads) != 1 || string(payloads[0]) != string(data) {
		t.Errorf("DownloadBatch = %v, %v; want the cached payload", payloads, err)
	}
	if err := client.Upload(fp, data); err == nil {
		t.Error("peer accepted an upload")
	}
}

// TestTrackerMetricsEndpoint: /peer/metrics serves the tracker's
// unified telemetry snapshot, and it reconciles with the legacy
// TrackerStats view.
func TestTrackerMetricsEndpoint(t *testing.T) {
	tr := NewTracker()
	tr.Announce("node0", fpOf("m a"), fpOf("m b"))
	tr.Announce("node1", fpOf("m a"))
	tr.ReportServed(3, 4096, 2, 1024)
	srv := httptest.NewServer(NewTrackerHandler(tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/peer/metrics")
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
		t.Fatalf("decode /peer/metrics: %v", err)
	}
	st := tr.Stats()
	if got := snap.Gauge("tracker.fingerprints"); got != int64(st.Fingerprints) {
		t.Errorf("tracker.fingerprints = %d, legacy view %d", got, st.Fingerprints)
	}
	if got := snap.Counter("tracker.announces"); got != st.Announces {
		t.Errorf("tracker.announces = %d, legacy view %d", got, st.Announces)
	}
	if got := snap.Counter("tracker.peer.bytes"); got != st.PeerBytes {
		t.Errorf("tracker.peer.bytes = %d, legacy view %d", got, st.PeerBytes)
	}
}
