package netsim

import (
	"errors"
	"testing"
	"time"
)

// mustRange records one range request on an open link.
func mustRange(t *testing.T, l *Link, size int64) time.Duration {
	t.Helper()
	cost, err := l.TransferRangeQuote(1, size)
	if err == nil {
		err = l.RecordTransfer(1, size, cost)
	}
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

// With RangeOverhead zero, a range request prices bit-identically to a
// whole-object request — the degeneration the chunked path relies on.
func TestTransferRangeDegeneratesToTransfer(t *testing.T) {
	cfg := DefaultLAN()
	a, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{0, 1, 4096, 1 << 20} {
		whole := priced(a.Transfer(size))
		ranged := mustRange(t, b, size)
		if whole != ranged {
			t.Fatalf("size %d: whole %v != range %v with zero RangeOverhead", size, whole, ranged)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestTransferRangePaysRangeOverhead(t *testing.T) {
	cfg := DefaultLAN()
	cfg.RangeOverhead = 5 * time.Millisecond
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewLink(cfg.WithBandwidth(904))
	if err != nil {
		t.Fatal(err)
	}
	whole := priced(base.Transfer(4096))
	ranged := mustRange(t, l, 4096)
	if got, want := ranged-whole, 5*time.Millisecond; got != want {
		t.Fatalf("range premium = %v, want %v", got, want)
	}
	// The premium is server-side: a straggler factor scales it too.
	if err := l.SetServiceFactor(2); err != nil {
		t.Fatal(err)
	}
	if err := base.SetServiceFactor(2); err != nil {
		t.Fatal(err)
	}
	whole2 := priced(base.Transfer(4096))
	ranged2 := mustRange(t, l, 4096)
	if got, want := ranged2-whole2, 10*time.Millisecond; got != want {
		t.Fatalf("scaled range premium = %v, want %v", got, want)
	}
}

// A range quote followed by RecordTransfer must price exactly like a
// one-shot recording call, jitter stream included — Transfer on a link
// whose every request pays the range premium, there being no one-shot
// range call.
func TestTransferRangeQuoteMatchesRecorded(t *testing.T) {
	cfg := DefaultLAN()
	cfg.RangeOverhead = time.Millisecond
	q, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RequestOverhead += cfg.RangeOverhead
	r, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*Link{q, r} {
		if err := l.SetServiceJitter(42, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		size := int64(1000 * (i + 1))
		cost, err := q.TransferRangeQuote(1, size)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.RecordTransfer(1, size, cost); err != nil {
			t.Fatal(err)
		}
		direct, err := r.Transfer(size)
		if err != nil {
			t.Fatal(err)
		}
		if cost != direct {
			t.Fatalf("request %d: quoted %v != recorded %v", i, cost, direct)
		}
	}
	if q.Stats() != r.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", q.Stats(), r.Stats())
	}
}

func TestTransferRangeErrors(t *testing.T) {
	l, err := NewLink(DefaultLAN())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.TransferRangeQuote(1, -1); !errors.Is(err, ErrBadStream) {
		t.Fatalf("negative quote: %v", err)
	}
	if bad := (LinkConfig{BytesPerSecond: 1, RangeOverhead: -1}); !errors.Is(bad.Validate(), ErrBadLink) {
		t.Fatal("negative RangeOverhead accepted")
	}
	l.Close()
	if _, err := l.TransferRangeQuote(1, 1); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("closed quote: %v", err)
	}
}
