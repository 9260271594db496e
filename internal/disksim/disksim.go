// Package disksim models storage-device cost for the conversion-time
// experiment (Fig 6 of the Gear paper). Converting a Docker image walks
// the reconstructed filesystem and reads every file once, so the dominant
// costs are per-file access latency (seeks on the paper's WD60PURX HDD)
// and sequential throughput. The paper's SSD ablation — node's conversion
// dropping from 105 s to 36 s (-65.7%) — falls out of the same model with
// SSD parameters.
package disksim

import (
	"errors"
	"fmt"
	"time"
)

// ErrBadDisk reports an invalid disk configuration.
var ErrBadDisk = errors.New("invalid disk configuration")

// Config describes a storage device.
type Config struct {
	// Name labels the device in reports ("hdd", "ssd").
	Name string
	// AccessLatency is the per-file positioning cost (seek + rotation on
	// spinning media, command overhead on flash).
	AccessLatency time.Duration
	// ReadBytesPerSecond is sustained sequential read throughput.
	ReadBytesPerSecond float64
	// WriteBytesPerSecond is sustained sequential write throughput.
	WriteBytesPerSecond float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.AccessLatency < 0 {
		return fmt.Errorf("disksim: negative access latency: %w", ErrBadDisk)
	}
	if c.ReadBytesPerSecond <= 0 || c.WriteBytesPerSecond <= 0 {
		return fmt.Errorf("disksim: non-positive throughput: %w", ErrBadDisk)
	}
	return nil
}

// HDD approximates the paper's surveillance-class SATA disk (WD60PURX):
// ~9 ms average access, ~150 MB/s sequential.
func HDD() Config {
	return Config{
		Name:                "hdd",
		AccessLatency:       9 * time.Millisecond,
		ReadBytesPerSecond:  150e6,
		WriteBytesPerSecond: 140e6,
	}
}

// SSD approximates a SATA solid-state disk: ~80 µs access, ~520 MB/s read.
func SSD() Config {
	return Config{
		Name:                "ssd",
		AccessLatency:       80 * time.Microsecond,
		ReadBytesPerSecond:  520e6,
		WriteBytesPerSecond: 480e6,
	}
}

// Disk prices I/O on a device. It keeps no tallies: each caller adds
// up the costs it is handed.
type Disk struct {
	cfg Config
}

// New returns a Disk for cfg.
func New(cfg Config) (*Disk, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Disk{cfg: cfg}, nil
}

// Config returns the device configuration.
func (d *Disk) Config() Config { return d.cfg }

// ReadCost returns the time to read one object of size bytes.
func (d *Disk) ReadCost(size int64) time.Duration {
	return d.cfg.AccessLatency +
		time.Duration(float64(size)/d.cfg.ReadBytesPerSecond*float64(time.Second))
}

// WriteCost returns the time to write one object of size bytes.
func (d *Disk) WriteCost(size int64) time.Duration {
	return d.cfg.AccessLatency +
		time.Duration(float64(size)/d.cfg.WriteBytesPerSecond*float64(time.Second))
}
