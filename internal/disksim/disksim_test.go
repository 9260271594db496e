package disksim

import (
	"errors"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"hdd", HDD(), true},
		{"ssd", SSD(), true},
		{"zero read", Config{WriteBytesPerSecond: 1}, false},
		{"zero write", Config{ReadBytesPerSecond: 1}, false},
		{"negative latency", Config{AccessLatency: -1, ReadBytesPerSecond: 1, WriteBytesPerSecond: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v", err)
			}
			if err != nil && !errors.Is(err, ErrBadDisk) {
				t.Errorf("err = %v, want ErrBadDisk", err)
			}
			_, err = New(tt.cfg)
			if (err == nil) != tt.ok {
				t.Errorf("New = %v", err)
			}
		})
	}
}

func TestCosts(t *testing.T) {
	cfg := Config{
		Name:                "test",
		AccessLatency:       time.Millisecond,
		ReadBytesPerSecond:  1e6,
		WriteBytesPerSecond: 2e6,
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.ReadCost(1e6), time.Second+time.Millisecond; got != want {
		t.Errorf("ReadCost = %v, want %v", got, want)
	}
	if got, want := d.WriteCost(1e6), 500*time.Millisecond+time.Millisecond; got != want {
		t.Errorf("WriteCost = %v, want %v", got, want)
	}
}

func TestSmallFilesAreSeekBound(t *testing.T) {
	// The paper attributes long conversion times to many small files;
	// per-file access latency must dominate for small objects on HDD.
	hdd, err := New(HDD())
	if err != nil {
		t.Fatal(err)
	}
	small := hdd.ReadCost(4 << 10)
	if small < hdd.Config().AccessLatency || small > 2*hdd.Config().AccessLatency {
		t.Errorf("4KB read cost %v should be dominated by %v seek", small, hdd.Config().AccessLatency)
	}
}

func TestSSDFasterThanHDD(t *testing.T) {
	hdd, err := New(HDD())
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := New(SSD())
	if err != nil {
		t.Fatal(err)
	}
	// A workload of 10k small files + 1 GB sequential: SSD should win by
	// well over the paper's 65.7% node-series reduction.
	cost := func(d *Disk) time.Duration {
		var total time.Duration
		for i := 0; i < 10000; i++ {
			total += d.ReadCost(16 << 10)
		}
		total += d.ReadCost(1 << 30)
		return total
	}
	h, s := cost(hdd), cost(ssd)
	if s >= h {
		t.Fatalf("ssd %v not faster than hdd %v", s, h)
	}
	reduction := 1 - float64(s)/float64(h)
	if reduction < 0.6 {
		t.Errorf("ssd reduction = %.2f, want > 0.6 (paper: 0.657)", reduction)
	}
}
