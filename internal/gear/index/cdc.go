package index

import (
	"errors"
	"fmt"
	"math/bits"
)

// Content-defined chunking for big Gear files. Fixed-size splitting
// (FixedChunks) shifts every boundary after an insertion, so one byte
// prepended to a model file re-fingerprints every chunk downstream.
// The rolling-hash chunker cuts where the content itself says to: a
// 64-byte Gear hash rolls across the file and declares a boundary
// wherever its low bits vanish, so identical regions of two files
// yield identical chunks regardless of their offsets — the property
// sub-file dedup (Table II's chunk rows) and chunked lazy loading
// both rest on.

// ErrBadChunkPolicy reports an invalid chunking configuration.
var ErrBadChunkPolicy = errors.New("invalid chunk policy")

// ChunkPolicy selects how the index builder splits large regular
// files. The zero value disables chunking (files stay whole). Setting
// FixedSize > 0 selects the legacy fixed-size split: files larger than
// FixedSize become FixedSize pieces. Setting AvgSize > 0 selects
// content-defined chunking with rolling-hash cut points bounded by
// [MinSize, MaxSize] and targeting AvgSize on average; files of at
// most MaxSize bytes stay whole (they could not produce two full
// chunks). The two modes are mutually exclusive.
type ChunkPolicy struct {
	// FixedSize is the legacy fixed-size chunk length.
	FixedSize int64
	// MinSize/AvgSize/MaxSize bound content-defined chunks. MinSize and
	// MaxSize default to AvgSize/4 and AvgSize*4 when left zero.
	MinSize int64
	AvgSize int64
	MaxSize int64
}

// FixedChunks is the fixed-size policy used by the original big-file
// extension: files larger than size split into size-byte pieces.
func FixedChunks(size int64) ChunkPolicy { return ChunkPolicy{FixedSize: size} }

// CDCChunks is the content-defined policy with the conventional 4x
// spread: chunks average avg bytes within [avg/4, avg*4].
func CDCChunks(avg int64) ChunkPolicy { return ChunkPolicy{AvgSize: avg} }

// Enabled reports whether the policy splits anything at all.
func (p ChunkPolicy) Enabled() bool { return p.FixedSize > 0 || p.AvgSize > 0 }

// normalized fills the CDC bound defaults.
func (p ChunkPolicy) normalized() ChunkPolicy {
	if p.AvgSize > 0 {
		if p.MinSize == 0 {
			p.MinSize = p.AvgSize / 4
			if p.MinSize < 1 {
				p.MinSize = 1
			}
		}
		if p.MaxSize == 0 {
			p.MaxSize = p.AvgSize * 4
		}
	}
	return p
}

// Validate checks the policy. Bounds are checked post-normalization,
// so a bare AvgSize is always valid.
func (p ChunkPolicy) Validate() error {
	if p.FixedSize < 0 {
		return fmt.Errorf("index: fixed chunk size %d: %w", p.FixedSize, ErrBadChunkPolicy)
	}
	if p.AvgSize == 0 {
		if p.MinSize != 0 || p.MaxSize != 0 {
			return fmt.Errorf("index: cdc bounds without an average size: %w", ErrBadChunkPolicy)
		}
		return nil
	}
	if p.AvgSize < 0 {
		return fmt.Errorf("index: cdc average size %d: %w", p.AvgSize, ErrBadChunkPolicy)
	}
	if p.FixedSize > 0 {
		return fmt.Errorf("index: both fixed and cdc chunking set: %w", ErrBadChunkPolicy)
	}
	n := p.normalized()
	if n.MinSize <= 0 || n.MinSize > n.AvgSize || n.AvgSize > n.MaxSize {
		return fmt.Errorf("index: cdc bounds min %d <= avg %d <= max %d violated: %w",
			n.MinSize, n.AvgSize, n.MaxSize, ErrBadChunkPolicy)
	}
	return nil
}

// Split returns the chunk payloads of data under the policy, or nil
// when the policy leaves the file whole. It is the exact cut the index
// builder makes, exposed for offline studies (the dedup analyzer's
// sub-file rows) and callers that chunk outside a build.
func (p ChunkPolicy) Split(data []byte) ([][]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.normalized().split(data), nil
}

// split returns the chunk payloads of data under the policy, or nil
// when the file stays whole. Boundaries depend only on the policy and
// the bytes, never on build order or GOMAXPROCS, which keeps
// BuildPolicy bit-identical across parallelism.
func (p ChunkPolicy) split(data []byte) [][]byte {
	size := int64(len(data))
	switch {
	case p.AvgSize > 0:
		n := p.normalized()
		if size <= n.MaxSize {
			return nil
		}
		return cdcSplit(data, n.MinSize, n.AvgSize, n.MaxSize)
	case p.FixedSize > 0:
		if size <= p.FixedSize {
			return nil
		}
		out := make([][]byte, 0, (size+p.FixedSize-1)/p.FixedSize)
		for off := int64(0); off < size; off += p.FixedSize {
			end := off + p.FixedSize
			if end > size {
				end = size
			}
			out = append(out, data[off:end])
		}
		return out
	}
	return nil
}

// gearTable drives the rolling hash: one 64-bit random word per byte
// value, generated by a fixed-seed splitmix64 stream. The table is
// part of the on-disk format — chunk boundaries feed chunk
// fingerprints feed the golden-pinned index bytes — so it must never
// change.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	x := uint64(0x6c62272e07bb0142)
	for i := range t {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		t[i] = z ^ z>>31
	}
	return t
}()

// cdcMask selects the cut mask: a boundary fires when the hash's k low
// bits are zero, which happens once every 2^k bytes on average, so the
// expected chunk length is min + 2^k ~ avg.
func cdcMask(min, avg int64) uint64 {
	target := avg - min
	if target < 2 {
		target = 2
	}
	k := bits.Len64(uint64(target)) - 1
	return 1<<uint(k) - 1
}

// cdcSplit cuts data into content-defined pieces. Each chunk is at
// most max bytes; every chunk but the last is at least min. The Gear
// hash h = h<<1 + table[b] depends only on the previous 64 bytes, so
// rolling is warmed up 64 bytes before the first admissible cut point
// instead of from the chunk start — identical boundaries, less work.
func cdcSplit(data []byte, min, avg, max int64) [][]byte {
	mask := cdcMask(min, avg)
	n := int64(len(data))
	out := make([][]byte, 0, n/avg+1)
	for start := int64(0); start < n; {
		end := start + max
		if end > n {
			end = n
		}
		cut := end
		if first := start + min; first < end {
			roll := first - 64
			if roll < start {
				roll = start
			}
			var h uint64
			for i := roll; i < end; i++ {
				h = h<<1 + gearTable[data[i]]
				if i+1 >= first && h&mask == 0 {
					cut = i + 1
					break
				}
			}
		}
		out = append(out, data[start:cut])
		start = cut
	}
	return out
}
