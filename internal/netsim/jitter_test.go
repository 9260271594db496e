package netsim

import (
	"errors"
	"testing"
	"time"
)

// TestServiceFactorScalesServeTime checks the straggler knob: a 10x
// factor multiplies the server-side cost (overhead + wire) while the
// RTT stays unscaled, and factor 1 restores the exact nominal cost.
func TestServiceFactorScalesServeTime(t *testing.T) {
	cfg := DefaultLAN()
	nominal, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.SetServiceFactor(10); err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	base := priced(nominal.Transfer(1, size))
	got := priced(slow.Transfer(1, size))
	want := cfg.RTT + 10*(base-cfg.RTT)
	if got != want {
		t.Errorf("10x factor cost = %v, want %v (base %v)", got, want, base)
	}
	if err := slow.SetServiceFactor(1); err != nil {
		t.Fatal(err)
	}
	if back := priced(slow.Transfer(1, size)); back != base {
		t.Errorf("factor 1 cost = %v, want nominal %v", back, base)
	}
	if err := slow.SetServiceFactor(0); !errors.Is(err, ErrBadLink) {
		t.Errorf("SetServiceFactor(0) = %v, want ErrBadLink", err)
	}
	if err := slow.SetServiceFactor(-2); !errors.Is(err, ErrBadLink) {
		t.Errorf("SetServiceFactor(-2) = %v, want ErrBadLink", err)
	}
}

// TestServiceJitterDeterministic checks that the same seed replays the
// same per-request cost sequence, a different seed diverges, and every
// jittered cost stays within [nominal, nominal*(1+amp)] on the
// server-side component.
func TestServiceJitterDeterministic(t *testing.T) {
	cfg := DefaultLAN()
	mk := func(seed uint64) *Link {
		l, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SetServiceJitter(seed, 0.5); err != nil {
			t.Fatal(err)
		}
		return l
	}
	a, b, c := mk(7), mk(7), mk(8)
	nominal, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 18
	base := priced(nominal.TransferQuote(1, size))
	ceiling := cfg.RTT + time.Duration(float64(base-cfg.RTT)*1.5)
	diverged := false
	for i := 0; i < 64; i++ {
		ca, cb, cc := priced(a.Transfer(1, size)), priced(b.Transfer(1, size)), priced(c.Transfer(1, size))
		if ca != cb {
			t.Fatalf("request %d: same seed diverged: %v vs %v", i, ca, cb)
		}
		if ca != cc {
			diverged = true
		}
		if ca < base || ca > ceiling {
			t.Errorf("request %d: jittered cost %v outside [%v, %v]", i, ca, base, ceiling)
		}
	}
	if !diverged {
		t.Error("different seeds produced identical 64-request cost sequences")
	}
	if err := a.SetServiceJitter(1, -0.1); !errors.Is(err, ErrBadLink) {
		t.Errorf("negative amplitude = %v, want ErrBadLink", err)
	}
}

// TestQuoteRecordMatchesTransfer checks the split API prices and
// accounts exactly like the one-shot calls, including the jitter stream
// position.
func TestQuoteRecordMatchesTransfer(t *testing.T) {
	cfg := DefaultLAN()
	oneshot, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*Link{oneshot, split} {
		if err := l.SetServiceJitter(99, 0.4); err != nil {
			t.Fatal(err)
		}
	}
	sizes := []int64{100, 5000, 0, 1 << 16}
	for i, size := range sizes {
		want, err := oneshot.Transfer(1, size)
		if err != nil {
			t.Fatal(err)
		}
		got, err := split.TransferQuote(1, size)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("request %d: quote %v != transfer %v", i, got, want)
		}
		if err := split.RecordTransfer(1, size, got); err != nil {
			t.Fatal(err)
		}
	}
	// Batch form too.
	want, err := oneshot.Transfer(3, 9000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := split.TransferQuote(3, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("batch quote %v != batch transfer %v", got, want)
	}
	if err := split.RecordTransfer(3, 9000, got); err != nil {
		t.Fatal(err)
	}
	if a, b := oneshot.Stats(), split.Stats(); a != b {
		t.Errorf("split accounting %+v != one-shot %+v", b, a)
	}

	// Partial record: a cancelled transfer commits fewer bytes at a
	// shorter busy time.
	before := split.Stats()
	if err := split.RecordTransfer(1, 42, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	after := split.Stats()
	if after.Bytes-before.Bytes != 42 || after.Elapsed-before.Elapsed != time.Millisecond {
		t.Errorf("partial record delta = %+v -> %+v", before, after)
	}
	if err := split.RecordTransfer(1, -1, 0); !errors.Is(err, ErrBadStream) {
		t.Errorf("negative record = %v, want ErrBadStream", err)
	}
	if _, err := split.TransferQuote(1, -1); !errors.Is(err, ErrBadStream) {
		t.Errorf("negative quote = %v, want ErrBadStream", err)
	}
	split.Close()
	if _, err := split.TransferQuote(1, 1); !errors.Is(err, ErrLinkClosed) {
		t.Errorf("closed quote = %v, want ErrLinkClosed", err)
	}
	if err := split.RecordTransfer(1, 1, 1); !errors.Is(err, ErrLinkClosed) {
		t.Errorf("closed record = %v, want ErrLinkClosed", err)
	}
}

// TestPrefixBytes checks the cancelled-transfer discount: no bytes
// before the RTT+overhead phase ends, all bytes at completion, and a
// linear ramp across the wire phase.
func TestPrefixBytes(t *testing.T) {
	cfg := LinkConfig{
		BytesPerSecond:  Mbps(8), // 1 MB/s: 1e6 bytes take 1s on the wire
		RTT:             100 * time.Millisecond,
		RequestOverhead: 400 * time.Millisecond,
	}
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const size = int64(1e6)
	cost := priced(l.TransferQuote(1, size)) // 100ms + 400ms + 1s = 1.5s
	if cost != 1500*time.Millisecond {
		t.Fatalf("cost = %v, want 1.5s", cost)
	}
	cases := []struct {
		busy time.Duration
		want int64
	}{
		{0, 0},
		{300 * time.Millisecond, 0},       // still in RTT+overhead
		{500 * time.Millisecond, 0},       // wire phase starts here
		{time.Second, 500000},             // halfway through the wire phase
		{1400 * time.Millisecond, 900000}, // 90% through
		{cost, size},                      // completed
		{2 * time.Second, size},           // past completion
	}
	for _, tc := range cases {
		if got := l.PrefixBytes(1, size, tc.busy, cost); got != tc.want {
			t.Errorf("PrefixBytes(busy %v) = %d, want %d", tc.busy, got, tc.want)
		}
	}
	// A 10x straggler cancelled during its stretched overhead phase has
	// moved nothing.
	if err := l.SetServiceFactor(10); err != nil {
		t.Fatal(err)
	}
	slowCost := priced(l.TransferQuote(1, size)) // 100ms + 10*(400ms + 1s) = 14.1s
	if got := l.PrefixBytes(1, size, 3*time.Second, slowCost); got != 0 {
		t.Errorf("straggler cancelled in overhead phase moved %d bytes, want 0", got)
	}
	if got := l.PrefixBytes(1, size, slowCost, slowCost); got != size {
		t.Errorf("straggler completed = %d bytes, want %d", got, size)
	}
	if got := l.PrefixBytes(0, size, time.Second, cost); got != 0 {
		t.Errorf("n=0 moved %d bytes, want 0", got)
	}
}

// TestTopologyServiceKnobs checks per-node factor routing, the typed
// unknown-node error, and that topology-level jitter derives stable
// per-node streams regardless of attachment order.
func TestTopologyServiceKnobs(t *testing.T) {
	wan, lan := DefaultLAN(), DefaultLAN()
	topo, err := NewTopology(wan, lan)
	if err != nil {
		t.Fatal(err)
	}
	a := topo.Node("a")
	if err := topo.SetServiceFactor("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetServiceFactor("ghost", 10); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node factor = %v, want ErrUnknownNode", err)
	}
	b := topo.Node("b")
	const size = 1 << 18
	ca, cb := priced(a.WAN.Transfer(1, size)), priced(b.WAN.Transfer(1, size))
	if ca <= cb {
		t.Errorf("straggler cost %v not above nominal %v", ca, cb)
	}
	// The factor reaches the node's LAN link too.
	la, lb := priced(a.LAN.TransferQuote(1, size)), priced(b.LAN.TransferQuote(1, size))
	if want := lan.RTT + 10*(lb-lan.RTT); la != want {
		t.Errorf("straggler LAN cost = %v, want %v", la, want)
	}

	// Same jitter seed, different attach orders: per-node streams match.
	mk := func(ids ...string) *Topology {
		tp, err := NewTopology(wan, lan)
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.SetServiceJitter(1234, 0.5); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			tp.Node(id)
		}
		return tp
	}
	t1 := mk("x", "y", "z")
	t2 := mk("z", "x", "y")
	for _, id := range []string{"x", "y", "z"} {
		for i := 0; i < 16; i++ {
			c1 := priced(t1.Node(id).WAN.Transfer(1, size))
			c2 := priced(t2.Node(id).WAN.Transfer(1, size))
			if c1 != c2 {
				t.Fatalf("node %s request %d: %v != %v across attach orders", id, i, c1, c2)
			}
		}
	}
	if err := t1.SetServiceJitter(1, -1); !errors.Is(err, ErrBadLink) {
		t.Errorf("negative topology amp = %v, want ErrBadLink", err)
	}
}
