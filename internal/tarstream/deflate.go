// This file and huffman.go hold the BestSpeed (level 1) path of the Go
// standard library's compress/flate writer — its compressor loop,
// deflatefast.go's matcher, and token.go — with levels 2-9, the
// fixed-Huffman-only paths and the inflater left out, and its error
// plumbing dropped (it writes only to memory). One change moves bytes:
// the matcher's step between hash probes can be capped (see
// deflateFast.maxStep). Two change only how the work is done, not one
// byte of it: the matcher emits one token for a run of literal bytes,
// which the coder counts and writes from the block itself; and a block
// that one write holds whole is matched where it lies, not copied into
// a window first (see compressor). Uncapped, the bytes it writes are
// compress/flate's at BestSpeed.
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package tarstream

import (
	"hash/crc32"
	"math"
)

const (
	// The LZ77 step produces a sequence of literal-run tokens and <length, offset>
	// pair tokens. The offset is also known as distance. The underlying wire
	// format limits the range of lengths and offsets. For example, there are
	// 256 legitimate lengths: those in the range [3, 258]. This package's
	// compressor uses a higher minimum match length, enabling optimizations
	// such as finding matches via 32-bit loads and compares.
	baseMatchLength = 3       // The smallest match length per the RFC section 3.2.5
	maxMatchLength  = 258     // The largest match length
	baseMatchOffset = 1       // The smallest match offset
	maxMatchOffset  = 1 << 15 // The largest match offset

	maxStoreBlockSize = 65535
)

// Probe steps, as deflateFast.maxStep: unboundedStep is compress/flate's
// own skip, which Gzip keeps so that its bytes stay gzip.Writer's;
// boundedStep is the cap the pool's segmented streams and range replies
// are written with. The uncapped step passes 64 bytes once ~2 KiB have
// gone by without a match, and grows with the distance since the last
// one, so that compressible bytes behind an incompressible stretch of the
// same block are probed too sparsely to be found (DESIGN.md, "The pool's
// encoder").
const (
	unboundedStep = math.MaxInt32
	boundedStep   = 64
)

// compressor is compress/flate's Writer at BestSpeed, writing a deflate
// stream of segments into a sink: the matcher turns each block of
// maxStoreBlockSize bytes into tokens, and the bit writer codes them at
// once as a Huffman-coded block.
//
// A block is matched where its bytes are when one write holds it whole;
// only what has to outlive a write is copied into a window: a block
// gathered from several writes, a write's last partial block and, when
// the stream goes on, the history behind it. The two windows take
// turns, so that a history that is in one is never in the one a block
// is gathered in (window[next]).
type compressor struct {
	w      huffmanBitWriter
	fast   deflateFast
	crc    uint32 // of the segment's content so far
	tokens []token
	window [2][]byte // maxStoreBlockSize bytes each
	next   int       // the window the next block is gathered in
	held   int       // bytes of the next block gathered in window[next]
	lent   bool      // the history is the bytes of a write under way
}

// maxTokens bounds the tokens of a block: a match covers at least 4
// bytes and a literal run at least 1, and no two runs are adjacent.
const maxTokens = 2*maxStoreBlockSize/5 + 2

func newCompressor(out *sink) *compressor {
	d := &compressor{
		w:      newHuffmanBitWriter(out),
		fast:   deflateFast{cur: maxStoreBlockSize, maxStep: unboundedStep},
		tokens: make([]token, 0, maxTokens),
	}
	for i := range d.window {
		d.window[i] = make([]byte, maxStoreBlockSize)
	}
	return d
}

// reset starts a new deflate stream with no history; the matcher's
// maxStep is kept.
func (d *compressor) reset() {
	d.w.reset()
	d.fast.reset()
	d.crc, d.held = 0, 0
}

// write compresses b. When last is set, b ends the segment's content:
// its last partial block is coded now, as the end of the segment would
// code it, and the history ends with it.
func (d *compressor) write(b []byte, last bool) {
	if d.held > 0 {
		w := d.window[d.next]
		n := copy(w[d.held:], b)
		d.held += n
		b = b[n:]
		if d.held == len(w) {
			d.held = 0
			d.block(w)
			d.next ^= 1
		}
	}
	for len(b) >= maxStoreBlockSize {
		d.block(b[:maxStoreBlockSize])
		b, d.lent = b[maxStoreBlockSize:], true
	}
	switch {
	case last:
		if d.held > 0 {
			b, d.held = d.window[d.next][:d.held], 0
		} else if len(b) >= 128 {
			d.lent = true // matched where it lies
		}
		d.seal(b)
	case len(b) > 0:
		d.held = copy(d.window[d.next], b)
	}
}

// settle is called when a write returns: the history the next block is
// matched against must outlive its bytes.
func (d *compressor) settle() {
	if !d.lent {
		return
	}
	d.lent = false
	prev := d.window[d.next^1][:len(d.fast.prev)]
	copy(prev, d.fast.prev)
	d.fast.prev = prev
}

// block matches src, a block, and codes it.
func (d *compressor) block(src []byte) {
	d.crc = crc32.Update(d.crc, crc32.IEEETable, src)
	tokens, codes := d.fast.encode(d.tokens[:0], src)
	d.tokens = tokens
	// If we removed less than 1/16th, Huffman compress the block.
	if codes > len(src)-len(src)>>4 {
		d.w.writeBlockHuff(false, src)
	} else {
		d.w.writeBlockDynamic(tokens, false, src)
	}
}

// seal ends a segment's content with src, its last partial block, as
// compress/flate codes one: a short one is stored or Huffman-coded
// alone, without the matcher.
func (d *compressor) seal(src []byte) {
	switch n := len(src); {
	case n >= 128:
		d.block(src)
	case n > 16:
		d.crc = crc32.Update(d.crc, crc32.IEEETable, src)
		d.w.writeBlockHuff(false, src)
	case n > 0:
		d.crc = crc32.Update(d.crc, crc32.IEEETable, src)
		d.w.writeStoredHeader(n, false)
		d.w.writeBytes(src)
	}
	d.fast.reset()
}

// cut ends the segment with a sync flush, which brings the stream to a
// byte boundary, and starts the next with no history; it returns the
// CRC-32 of the segment's content.
func (d *compressor) cut() uint32 {
	d.write(nil, true)
	d.w.writeStoredHeader(0, false)
	d.w.flush()
	crc := d.crc
	d.crc = 0
	return crc
}

// close ends the stream with an empty final stored block.
func (d *compressor) close() {
	d.write(nil, true)
	d.w.writeStoredHeader(0, true)
	d.w.flush()
}

// This encoding algorithm, which prioritizes speed over output size, is
// based on Snappy's LZ77-style encoder: github.com/golang/snappy

const (
	tableBits  = 14             // Bits used in the table.
	tableSize  = 1 << tableBits // Size of the table.
	tableMask  = tableSize - 1  // Mask for table indices. Redundant, but can eliminate bounds checks.
	tableShift = 32 - tableBits // Right-shift to get the tableBits most significant bits of a uint32.

	// Reset the buffer offset when reaching this.
	// Offsets are stored between blocks as int32 values.
	// Since the offset we are checking against is at the beginning
	// of the buffer, we need to subtract the current and input
	// buffer to not risk overflowing the int32.
	bufferReset = math.MaxInt32 - maxStoreBlockSize*2
)

func load32(b []byte, i int32) uint32 {
	b = b[i : i+4 : len(b)] // Help the compiler eliminate bounds checks on the next line.
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func load64(b []byte, i int32) uint64 {
	b = b[i : i+8 : len(b)] // Help the compiler eliminate bounds checks on the next line.
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func hash(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> tableShift
}

// These constants are defined by the Snappy implementation so that its
// assembly implementation can fast-path some 16-bytes-at-a-time copies. They
// aren't necessary in the pure Go implementation, as we don't use those same
// optimizations, but using the same thresholds doesn't really hurt.
const (
	inputMargin            = 16 - 1
	minNonLiteralBlockSize = 1 + 1 + inputMargin
)

type tableEntry struct {
	val    uint32 // Value at destination
	offset int32
}

// deflateFast maintains the table for matches,
// and the previous byte block for cross block matching.
type deflateFast struct {
	table [tableSize]tableEntry
	prev  []byte // Previous block, zero length if unknown.
	cur   int32  // Current match offset.

	// maxStep caps the step between hash probes (unboundedStep or
	// boundedStep); it is the one departure from compress/flate.
	maxStep int32
}

// encode encodes a block given in src and appends tokens to dst and
// returns the result, and how many tokens compress/flate, which emits a
// token per literal byte, would have emitted. src is the matcher's
// history for the next block until then.
func (e *deflateFast) encode(dst []token, src []byte) ([]token, int) {
	// Ensure that e.cur doesn't wrap.
	if e.cur >= bufferReset {
		e.shiftOffsets()
	}

	// This check isn't in the Snappy implementation, but there, the caller
	// instead of the callee handles this case.
	if len(src) < minNonLiteralBlockSize {
		e.cur += maxStoreBlockSize
		e.prev = e.prev[:0]
		return emitLiteral(dst, len(src)), len(src)
	}

	// sLimit is when to stop looking for offset/length copies. The inputMargin
	// lets us use a fast path for emitLiteral in the main loop, while we are
	// looking for copies.
	sLimit := int32(len(src) - inputMargin)

	// nextEmit is where in src the next emitLiteral should start from.
	nextEmit := int32(0)
	// runs is how many literal bytes the runs emitted hold beyond one each.
	runs := 0
	s := int32(0)
	cv := load32(src, s)
	nextHash := hash(cv)

	for {
		// Copied from the C++ snappy implementation:
		//
		// Heuristic match skipping: If 32 bytes are scanned with no matches
		// found, start looking only at every other byte. If 32 more bytes are
		// scanned (or skipped), look at every third byte, etc.. When a match
		// is found, immediately go back to looking at every byte. This is a
		// small loss (~5% performance, ~0.1% density) for compressible data
		// due to more bookkeeping, but for non-compressible data (such as
		// JPEG) it's a huge win since the compressor quickly "realizes" the
		// data is incompressible and doesn't bother looking for matches
		// everywhere.
		//
		// The "skip" variable keeps track of how many bytes there are since
		// the last match; dividing it by 32 (ie. right-shifting by five) gives
		// the number of bytes to move ahead for each iteration.
		skip := int32(32)

		nextS := s
		var candidate tableEntry
		for {
			s = nextS
			bytesBetweenHashLookups := min(skip>>5, e.maxStep)
			nextS = s + bytesBetweenHashLookups
			skip += bytesBetweenHashLookups
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = e.table[nextHash&tableMask]
			now := load32(src, nextS)
			e.table[nextHash&tableMask] = tableEntry{offset: s + e.cur, val: cv}
			nextHash = hash(now)

			offset := s - (candidate.offset - e.cur)
			if offset > maxMatchOffset || cv != candidate.val {
				// Out of range or not matched.
				cv = now
				continue
			}
			break
		}

		// A 4-byte match has been found. We'll later see if more than 4 bytes
		// match. But, prior to the match, src[nextEmit:s] are unmatched. Emit
		// them as literal bytes.
		if nextEmit < s {
			dst = emitLiteral(dst, int(s-nextEmit))
			runs += int(s-nextEmit) - 1
		}

		// Call emitCopy, and then see if another emitCopy could be our next
		// move. Repeat until we find no match for the input immediately after
		// what was consumed by the last emitCopy call.
		//
		// If we exit this loop normally then we need to call emitLiteral next,
		// though we don't yet know how big the literal will be. We handle that
		// by proceeding to the next iteration of the main loop. We also can
		// exit this loop via goto if we get close to exhausting the input.
		for {
			// Invariant: we have a 4-byte match at s, and no need to emit any
			// literal bytes prior to s.

			// Extend the 4-byte match as long as possible.
			//
			s += 4
			t := candidate.offset - e.cur + 4
			l := e.matchLen(s, t, src)

			// matchToken is flate's equivalent of Snappy's emitCopy. (length,offset)
			dst = append(dst, matchToken(uint32(l+4-baseMatchLength), uint32(s-t-baseMatchOffset)))
			s += l
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}

			// We could immediately start working at s now, but to improve
			// compression we first update the hash table at s-1 and at s. If
			// another emitCopy is not our next move, also calculate nextHash
			// at s+1. At least on GOARCH=amd64, these three hash calculations
			// are faster as one load64 call (with some shifts) instead of
			// three load32 calls.
			x := load64(src, s-1)
			prevHash := hash(uint32(x))
			e.table[prevHash&tableMask] = tableEntry{offset: e.cur + s - 1, val: uint32(x)}
			x >>= 8
			currHash := hash(uint32(x))
			candidate = e.table[currHash&tableMask]
			e.table[currHash&tableMask] = tableEntry{offset: e.cur + s, val: uint32(x)}

			offset := s - (candidate.offset - e.cur)
			if offset > maxMatchOffset || uint32(x) != candidate.val {
				cv = uint32(x >> 8)
				nextHash = hash(cv)
				s++
				break
			}
		}
	}

emitRemainder:
	if int(nextEmit) < len(src) {
		dst = emitLiteral(dst, len(src)-int(nextEmit))
		runs += len(src) - int(nextEmit) - 1
	}
	e.cur += int32(len(src))
	e.prev = src
	return dst, len(dst) + runs
}

// emitLiteral emits a run of n > 0 literal bytes: one token, its bytes
// left where they are in the block.
func emitLiteral(dst []token, n int) []token {
	return append(dst, runToken(n))
}

// matchLen returns the match length between src[s:] and src[t:].
// t can be negative to indicate the match is starting in e.prev.
// We assume that src[s-4:s] and src[t-4:t] already match.
func (e *deflateFast) matchLen(s, t int32, src []byte) int32 {
	s1 := int(s) + maxMatchLength - 4
	if s1 > len(src) {
		s1 = len(src)
	}

	// If we are inside the current block
	if t >= 0 {
		b := src[t:]
		a := src[s:s1]
		b = b[:len(a)]
		// Extend the match to be as long as possible.
		for i := range a {
			if a[i] != b[i] {
				return int32(i)
			}
		}
		return int32(len(a))
	}

	// We found a match in the previous block.
	tp := int32(len(e.prev)) + t
	if tp < 0 {
		return 0
	}

	// Extend the match to be as long as possible.
	a := src[s:s1]
	b := e.prev[tp:]
	if len(b) > len(a) {
		b = b[:len(a)]
	}
	a = a[:len(b)]
	for i := range b {
		if a[i] != b[i] {
			return int32(i)
		}
	}

	// If we reached our limit, we matched everything we are
	// allowed to in the previous block and we return.
	n := int32(len(b))
	if int(s+n) == s1 {
		return n
	}

	// Continue looking for more matches in the current block.
	a = src[s+n : s1]
	b = src[:len(a)]
	for i := range a {
		if a[i] != b[i] {
			return int32(i) + n
		}
	}
	return int32(len(a)) + n
}

// Reset resets the encoding history.
// This ensures that no matches are made to the previous block.
func (e *deflateFast) reset() {
	e.prev = e.prev[:0]
	// Bump the offset, so all matches will fail distance check.
	// Nothing should be >= e.cur in the table.
	e.cur += maxMatchOffset

	// Protect against e.cur wraparound.
	if e.cur >= bufferReset {
		e.shiftOffsets()
	}
}

// shiftOffsets will shift down all match offset.
// This is only called in rare situations to prevent integer overflow.
//
// See https://golang.org/issue/18636 and https://github.com/golang/go/issues/34121.
func (e *deflateFast) shiftOffsets() {
	if len(e.prev) == 0 {
		// We have no history; just clear the table.
		clear(e.table[:])
		e.cur = maxMatchOffset + 1
		return
	}

	// Shift down everything in the table that isn't already too far away.
	for i := range e.table[:] {
		v := e.table[i].offset - e.cur + maxMatchOffset + 1
		if v < 0 {
			// We want to reset e.cur to maxMatchOffset + 1, so we need to shift
			// all table entries down by (e.cur - (maxMatchOffset + 1)).
			// Because we ignore matches > maxMatchOffset, we can cap
			// any negative offsets at 0.
			v = 0
		}
		e.table[i].offset = v
	}
	e.cur = maxMatchOffset + 1
}

const (
	// 2 bits:   type   0 = literal run  1 = match
	// 8 bits:   xlength = length - MIN_MATCH_LENGTH
	// 22 bits   xoffset = offset - MIN_OFFSET_SIZE, or the run's length
	//
	// A run stands for as many literal bytes of the block, from where the
	// tokens before it end; compress/flate emits a token per byte.
	lengthShift = 22
	offsetMask  = 1<<lengthShift - 1
	runType     = 0 << 30
	matchType   = 1 << 30
)

// The length code for length X (MIN_MATCH_LENGTH <= X <= MAX_MATCH_LENGTH)
// is lengthCodes[length - MIN_MATCH_LENGTH]
var lengthCodes = [...]uint32{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 12, 12,
	13, 13, 13, 13, 14, 14, 14, 14, 15, 15,
	15, 15, 16, 16, 16, 16, 16, 16, 16, 16,
	17, 17, 17, 17, 17, 17, 17, 17, 18, 18,
	18, 18, 18, 18, 18, 18, 19, 19, 19, 19,
	19, 19, 19, 19, 20, 20, 20, 20, 20, 20,
	20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
	21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
	21, 21, 21, 21, 21, 21, 22, 22, 22, 22,
	22, 22, 22, 22, 22, 22, 22, 22, 22, 22,
	22, 22, 23, 23, 23, 23, 23, 23, 23, 23,
	23, 23, 23, 23, 23, 23, 23, 23, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 28,
}

var offsetCodes = [...]uint32{
	0, 1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7,
	8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9,
	10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
	11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
}

type token uint32

// runToken is a run of n literal bytes.
func runToken(n int) token { return token(runType + uint32(n)) }

// Convert a < xlength, xoffset > pair into a match token.
func matchToken(xlength uint32, xoffset uint32) token {
	return token(matchType + xlength<<lengthShift + xoffset)
}

// run is how many literal bytes a run token stands for.
func (t token) run() int { return int(t - runType) }

// Returns the extra offset of a match token.
func (t token) offset() uint32 { return uint32(t) & offsetMask }

func (t token) length() uint32 { return uint32((t - matchType) >> lengthShift) }

func lengthCode(len uint32) uint32 { return lengthCodes[len] }

// Returns the offset code corresponding to a specific offset.
func offsetCode(off uint32) uint32 {
	if off < uint32(len(offsetCodes)) {
		return offsetCodes[off]
	}
	if off>>7 < uint32(len(offsetCodes)) {
		return offsetCodes[off>>7] + 14
	}
	return offsetCodes[off>>14] + 28
}
