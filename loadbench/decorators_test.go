package main

import (
	"testing"

	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
)

// stubGear counts the calls each verb receives.
type stubGear struct{ calls map[string]int }

func (s *stubGear) Query(hashing.Fingerprint) (bool, error)  { s.calls["query"]++; return true, nil }
func (s *stubGear) Upload(hashing.Fingerprint, []byte) error { s.calls["upload"]++; return nil }
func (s *stubGear) Download(hashing.Fingerprint) ([]byte, int64, error) {
	s.calls["download"]++
	return []byte("x"), 1, nil
}
func (s *stubGear) QueryBatch(fps []hashing.Fingerprint) ([]bool, error) {
	s.calls["querybatch"]++
	return make([]bool, len(fps)), nil
}
func (s *stubGear) DownloadBatch(fps []hashing.Fingerprint) ([][]byte, int64, error) {
	s.calls["batch"]++
	return make([][]byte, len(fps)), 0, nil
}
func (s *stubGear) DownloadRange(hashing.Fingerprint, int64, int64) ([]byte, int64, error) {
	s.calls["range"]++
	return []byte("x"), 1, nil
}

// The store type-asserts its Remote for the optional verbs. The
// decorator must offer exactly the set its inner store offers and
// forward each verb once, or the traced run measures a different path.
func TestTracedGearForwardsEveryVerb(t *testing.T) {
	stub := &stubGear{calls: make(map[string]int)}
	tr := newTracer()
	x := &opCtx{tr: tr, id: tr.id()}
	var remote gearregistry.Store = &tracedGear{inner: stub, st: newStack(tr, func(string) *opCtx { return x })}

	bq, ok := remote.(gearregistry.BatchQuerier)
	if !ok {
		t.Fatal("decorator hides BatchQuerier")
	}
	bd, ok := remote.(gearregistry.BatchDownloader)
	if !ok {
		t.Fatal("decorator hides BatchDownloader")
	}
	rd, ok := remote.(gearregistry.RangeDownloader)
	if !ok {
		t.Fatal("decorator hides RangeDownloader")
	}
	fp := hashing.FingerprintBytes([]byte("x"))
	_, _ = remote.Query(fp)
	_ = remote.Upload(fp, []byte("x"))
	_, _, _ = remote.Download(fp)
	_, _ = bq.QueryBatch([]hashing.Fingerprint{fp})
	_, _, _ = bd.DownloadBatch([]hashing.Fingerprint{fp})
	_, _, _ = rd.DownloadRange(fp, 0, 1)

	for _, verb := range []string{"query", "upload", "download", "querybatch", "batch", "range"} {
		if stub.calls[verb] != 1 {
			t.Errorf("verb %s reached the inner store %d times, want 1", verb, stub.calls[verb])
		}
	}
	spans := tr.snapshot()
	if len(spans) != 6 {
		t.Fatalf("recorded %d spans, want one per verb", len(spans))
	}
	for _, s := range spans {
		if s.Op != x.id || s.Layer != layerGearCli || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
}
