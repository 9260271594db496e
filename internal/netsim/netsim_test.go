package netsim

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// priced is the cost of a transfer that must succeed.
func priced(cost time.Duration, err error) time.Duration {
	if err != nil {
		panic(err)
	}
	return cost
}

func TestMbps(t *testing.T) {
	if got := Mbps(8); got != 1e6 {
		t.Errorf("Mbps(8) = %f, want 1e6 bytes/s", got)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  LinkConfig
		ok   bool
	}{
		{"lan", DefaultLAN(), true},
		{"zero bandwidth", LinkConfig{}, false},
		{"negative rtt", LinkConfig{BytesPerSecond: 1, RTT: -1}, false},
		{"negative overhead", LinkConfig{BytesPerSecond: 1, RequestOverhead: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v", err)
			}
			if err != nil && !errors.Is(err, ErrBadLink) {
				t.Errorf("err = %v, want ErrBadLink", err)
			}
			_, err = NewLink(tt.cfg)
			if (err == nil) != tt.ok {
				t.Errorf("NewLink = %v", err)
			}
		})
	}
}

func TestTransferCost(t *testing.T) {
	cfg := LinkConfig{
		BytesPerSecond:  1e6, // 1 MB/s
		RTT:             10 * time.Millisecond,
		RequestOverhead: 5 * time.Millisecond,
	}
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB at 1 MB/s = 1 s wire + 15 ms fixed.
	got := l.TransferCost(1e6)
	want := time.Second + 15*time.Millisecond
	if got != want {
		t.Errorf("TransferCost = %v, want %v", got, want)
	}
	if got := l.TransferCost(0); got != 15*time.Millisecond {
		t.Errorf("zero-byte cost = %v, want 15ms", got)
	}
}

func TestBandwidthOrdering(t *testing.T) {
	// Lower bandwidth must strictly increase cost — the shape behind Fig 9.
	base := DefaultLAN()
	var prev time.Duration
	for i, mbps := range []float64{904, 100, 20, 5} {
		l, err := NewLink(base.WithBandwidth(mbps))
		if err != nil {
			t.Fatal(err)
		}
		cost := l.TransferCost(10 << 20)
		if i > 0 && cost <= prev {
			t.Errorf("cost at %.0f Mbps (%v) not greater than faster link (%v)", mbps, cost, prev)
		}
		prev = cost
	}
}

func TestTransferAccumulates(t *testing.T) {
	l, err := NewLink(DefaultLAN())
	if err != nil {
		t.Fatal(err)
	}
	c1 := priced(l.Transfer(1000))
	c2 := priced(l.Transfer(2000))
	s := l.Stats()
	if s.Bytes != 3000 || s.Requests != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.Elapsed != c1+c2 {
		t.Errorf("elapsed = %v, want %v", s.Elapsed, c1+c2)
	}
	l.Reset()
	if s := l.Stats(); s.Bytes != 0 || s.Requests != 0 || s.Elapsed != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestTransferBatchAmortizesRTT(t *testing.T) {
	cfg := LinkConfig{
		BytesPerSecond:  1e9,
		RTT:             50 * time.Millisecond,
		RequestOverhead: time.Millisecond,
	}
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := priced(l.TransferBatch(100, 1e6))
	l.Reset()
	var serial time.Duration
	for i := 0; i < 100; i++ {
		serial += priced(l.Transfer(1e4))
	}
	if batch >= serial {
		t.Errorf("batched %v not cheaper than serial %v", batch, serial)
	}
	if got := priced(l.TransferBatch(0, 0)); got != 0 {
		t.Errorf("empty batch cost = %v", got)
	}
}

func TestPerRequestOverheadPenalizesSmallObjects(t *testing.T) {
	// Same bytes, many more requests => more time. This is the mechanism
	// that makes Slacker's block fetches slower than Gear's file fetches
	// in Fig 10 at low bandwidth.
	l, err := NewLink(DefaultLAN().WithBandwidth(5))
	if err != nil {
		t.Fatal(err)
	}
	const total = 1 << 20
	asBlocks := priced(l.TransferBatch(total/4096, total)) // 4 KB blocks
	l.Reset()
	asFiles := priced(l.TransferBatch(32, total)) // 32 files
	if asBlocks <= asFiles {
		t.Errorf("block-granularity %v not slower than file-granularity %v", asBlocks, asFiles)
	}
}

func TestLinkConcurrentSafety(t *testing.T) {
	l, err := NewLink(DefaultLAN())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Transfer(10)
			}
		}()
	}
	wg.Wait()
	s := l.Stats()
	if s.Bytes != 8000 || s.Requests != 800 {
		t.Errorf("stats = %+v, want 8000 bytes / 800 requests", s)
	}
}

// Property: transfer cost is monotone in size and additive bookkeeping
// never loses bytes.
func TestCostMonotoneProperty(t *testing.T) {
	l, err := NewLink(DefaultLAN())
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b uint32) bool {
		x, y := int64(a%1e7), int64(b%1e7)
		if x > y {
			x, y = y, x
		}
		return l.TransferCost(x) <= l.TransferCost(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
