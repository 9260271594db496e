package tarstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file is the repository's one decoder: RFC 1951 deflate data and
// the RFC 1952 gzip members around it, read from memory, whole or a
// piece at a time. deflate.go and huffman.go are its encoder.

var (
	errDeflate  = errors.New("corrupt deflate data")
	errHeader   = errors.New("invalid gzip header")
	errChecksum = errors.New("invalid gzip checksum")
)

// The decoding tables. A code of at most root bits is one lookup among a
// table's first 1<<root entries; a longer one is a second lookup, in the
// subtable its root entry links to, sized as zlib's inflate_table sizes
// it: c bits wide, where c is the depth of the deepest code below that
// entry. Of a complete code, that subtree holds at least c+1 codes, and c
// is at most 15-root; 2^c/(c+1) grows with c, so n codes fill at most
// n*2^c/(c+1) subtable entries with c = 15-root, which bounds the arrays.
const (
	maxCodeBits = 15
	litRoot     = 10
	distRoot    = 8
	lenRoot     = 7 // the code-length code's codes are at most 7 bits: no subtables
	litEntries  = 1<<litRoot + (maxNumLit/(maxCodeBits-litRoot+1)+1)<<(maxCodeBits-litRoot)
	distEntries = 1<<distRoot + (offsetCodeCount/(maxCodeBits-distRoot+1)+1)<<(maxCodeBits-distRoot)

	// histSize is how far back a match may reach.
	histSize = maxMatchOffset
)

// A table entry is value<<16 | extra<<8 | kind<<5 | n: n is the length of
// the code, root included; extra is how many extra bits follow a length
// or distance code, or how many index bits a link's subtable takes; value
// is a literal byte, a length or distance base, or a subtable's offset.
const (
	kindLiteral = iota << 5 // also a code-length symbol
	kindBase                // a length or a distance
	kindEnd                 // end of block
	kindLink
	kindBad  // no symbol has this code, or its symbol is not one RFC 1951 allows
	kindMask = 7 << 5
)

// symbols of each alphabet, as table entries without their code lengths.
var litSyms, distSyms, lenSyms = func() (lit [288]uint32, dist [32]uint32, lens [codegenCodeCount]uint32) {
	for s := range lit {
		switch {
		case s < endBlockMarker:
			lit[s] = uint32(s)<<16 | kindLiteral
		case s == endBlockMarker:
			lit[s] = kindEnd
		case s < maxNumLit:
			i := s - lengthCodesStart
			lit[s] = (lengthBase[i]+baseMatchLength)<<16 | uint32(lengthExtraBits[i])<<8 | kindBase
		default:
			lit[s] = kindBad
		}
	}
	for d := range dist {
		dist[d] = kindBad
		if d < offsetCodeCount {
			dist[d] = (offsetBase[d]+baseMatchOffset)<<16 | uint32(offsetExtraBits[d])<<8 | kindBase
		}
	}
	for s := range lens {
		lens[s] = uint32(s)<<16 | kindLiteral
	}
	return
}()

// The fixed codes of RFC 1951 §3.2.6.
var fixedLit, fixedDist = func() (lit *[litEntries]uint32, dist *[distEntries]uint32) {
	var l [288]uint8
	for s := range l {
		switch {
		case s < 144:
			l[s] = 8
		case s < 256:
			l[s] = 9
		case s < 280:
			l[s] = 7
		default:
			l[s] = 8
		}
	}
	var d [32]uint8
	for s := range d {
		d[s] = 5
	}
	lit, dist = new([litEntries]uint32), new([distEntries]uint32)
	if !build(lit[:], l[:], litRoot, litSyms[:]) || !build(dist[:], d[:], distRoot, distSyms[:]) {
		panic("tarstream: the fixed codes do not build")
	}
	return
}()

// build fills t with the table of the canonical code whose code lengths
// lens gives, symbol s's entry being syms[s] with its length. It reports
// false for what compress/flate refuses: a code that is over-subscribed,
// or incomplete other than as one code of one bit. A code with no
// lengths builds, as a table every lookup of which is bad.
func build(t []uint32, lens []uint8, root uint, syms []uint32) bool {
	var count [maxCodeBits + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	top, left := 0, 1
	for l := 1; l <= maxCodeBits; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return false
		}
		if count[l] > 0 {
			top = l
		}
	}
	size := 1 << root
	if left > 0 {
		if top > 1 || (top == 1 && count[1] != 1) {
			return false
		}
		for i := range t[:size] {
			t[i] = kindBad
		}
	}
	// The symbols in code order: by length, then by symbol.
	var start [maxCodeBits + 2]int
	for l := 1; l <= maxCodeBits; l++ {
		start[l+1] = start[l] + count[l]
	}
	var order [288]uint16
	for s, l := range lens {
		if l > 0 {
			order[start[l]] = uint16(s)
			start[l]++
		}
	}
	code, prev := 0, 0
	next, link := size, -1 // where the next subtable goes; the root entry of the open one
	for _, s := range order[:start[maxCodeBits+1]] {
		l := int(lens[s])
		code <<= l - prev
		prev = l
		rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
		code++
		e := syms[s] | uint32(l)
		if l <= int(root) {
			for i := rev; i < size; i += 1 << l {
				t[i] = e
			}
			count[l]--
			continue
		}
		if low := rev & (size - 1); low != link {
			// A subtable as wide as the codes left to place need.
			link = low
			sub := l - int(root)
			for room := 1 << sub; sub+int(root) < top; sub++ {
				if room -= count[sub+int(root)]; room <= 0 {
					break
				}
				room <<= 1
			}
			t[link] = uint32(next)<<16 | uint32(sub)<<8 | kindLink | uint32(root)
			next += 1 << sub
		}
		base, sub := int(t[link]>>16), int(t[link]>>8&0xff)
		for i := rev >> root; i < 1<<sub; i += 1 << (l - int(root)) {
			t[base+i] = e
		}
		count[l]--
	}
	return true
}

// inflater decodes one deflate stream held in memory, whole or a piece
// at a time. It can stop wherever its output is full — inside a stored
// block or a match included — and go on from there when given more room;
// and, told that more input may follow (more), it stops between symbols
// where its input runs out, to go on when given more.
type inflater struct {
	in   []byte
	more bool   // in is not the whole stream: more of it may follow
	pos  int    // the next byte of in to load into bits
	bits uint64 // loaded bits, the next one lowest; those above nb are in[pos:]'s or zero
	nb   uint

	mode  int
	final bool // the current block is the last
	left  int  // of the stored block, or of the match under way
	dist  int  // of the match under way

	lit  *[litEntries]uint32
	dst  *[distEntries]uint32
	litT [litEntries]uint32
	dstT [distEntries]uint32
	lenT [1 << lenRoot]uint32
	lens [maxNumLit + offsetCodeCount]uint8
}

const (
	modeHeader = iota
	modeStored
	modeHuffman
	modeEnd    // the final block has ended
	modeMember // a gzip member's header is next, if there is one
)

// errMore is what the decoder returns when its input ran out and more
// may follow: it has stopped where it can go on from.
var errMore = errors.New("tarstream: more input needed")

// short is the error of input that ran out.
func (f *inflater) short() error {
	if f.more {
		return errMore
	}
	return io.ErrUnexpectedEOF
}

// reset readies f for the deflate stream that starts at in[pos].
func (f *inflater) reset(pos int) {
	f.pos, f.bits, f.nb = pos, 0, 0
	f.mode, f.final, f.left = modeHeader, false, 0
}

// refill loads in's bytes into bits: eight at a time while eight are
// left, leaving at least 56 bits loaded, which a literal or a whole
// match, code and extra bits of both, never outruns; then one at a time.
func (f *inflater) refill() {
	if f.pos+8 <= len(f.in) {
		f.bits |= binary.LittleEndian.Uint64(f.in[f.pos:]) << f.nb
		f.pos += int(63-f.nb) >> 3
		f.nb |= 56
		return
	}
	for f.nb <= 56 && f.pos < len(f.in) {
		f.bits |= uint64(f.in[f.pos]) << f.nb
		f.pos++
		f.nb += 8
	}
}

// take consumes n bits and returns them, reporting false when the
// stream has fewer left.
func (f *inflater) take(n uint) (uint64, bool) {
	if f.nb < n {
		f.refill()
		if f.nb < n {
			return 0, false
		}
	}
	v := f.bits & (1<<n - 1)
	f.bits >>= n
	f.nb -= n
	return v, true
}

// end is the first byte of in that is not consumed whole: after the
// final block, where the stream's data ends.
func (f *inflater) end() int { return f.pos - int(f.nb>>3) }

// decode inflates into out[w:] until out is full or the final block has
// ended, and returns how far out is filled. Back references reach into
// out[hist:w], the content before them: it must hold what the stream
// wrote since it started, or the last histSize bytes of it.
func (f *inflater) decode(out []byte, w, hist int) (int, error) {
	for {
		switch f.mode {
		case modeEnd:
			return w, nil
		case modeHeader:
			bits, nb, pos := f.bits, f.nb, f.pos
			if err := f.header(); err != nil {
				if err == io.ErrUnexpectedEOF && f.more {
					// The header is read again, whole, from more input.
					f.bits, f.nb, f.pos = bits, nb, pos
					err = errMore
				}
				return w, err
			}
		case modeStored:
			if f.left == 0 {
				f.blockEnd()
				continue
			}
			if w == len(out) {
				return w, nil
			}
			k := copy(out[w:min(len(out), w+f.left)], f.in[f.pos:])
			if k == 0 {
				return w, f.short()
			}
			w += k
			f.pos += k
			f.left -= k
		case modeHuffman:
			var err error
			if w, err = f.huffman(out, w, hist); err != nil || f.mode == modeHuffman {
				return w, err
			}
		}
	}
}

func (f *inflater) blockEnd() {
	f.mode = modeHeader
	if f.final {
		f.mode = modeEnd
	}
}

// header reads a block header and what follows it up to the block's data.
func (f *inflater) header() error {
	v, ok := f.take(3)
	if !ok {
		return io.ErrUnexpectedEOF
	}
	f.final = v&1 == 1
	switch v >> 1 {
	case 0:
		// Stored: the rest of the byte is dropped, and LEN and NLEN are
		// read off whole bytes, which puts back the bytes still loaded.
		f.pos -= int(f.nb >> 3)
		f.bits, f.nb = 0, 0
		if len(f.in)-f.pos < 4 {
			return io.ErrUnexpectedEOF
		}
		n := binary.LittleEndian.Uint16(f.in[f.pos:])
		if n != ^binary.LittleEndian.Uint16(f.in[f.pos+2:]) {
			return errDeflate
		}
		f.pos += 4
		f.mode, f.left = modeStored, int(n)
	case 1:
		f.mode, f.lit, f.dst = modeHuffman, fixedLit, fixedDist
	case 2:
		if err := f.codes(); err != nil {
			return err
		}
		f.mode, f.lit, f.dst = modeHuffman, &f.litT, &f.dstT
	default:
		return errDeflate
	}
	return nil
}

// codes reads a dynamic block's code lengths and builds its tables.
func (f *inflater) codes() error {
	v, ok := f.take(14)
	if !ok {
		return io.ErrUnexpectedEOF
	}
	nlit, ndist, nlen := int(v&31)+lengthCodesStart, int(v>>5&31)+1, int(v>>10)+4
	if nlit > maxNumLit || ndist > offsetCodeCount {
		return errDeflate
	}
	var cl [codegenCodeCount]uint8
	for _, s := range codegenOrder[:nlen] {
		if v, ok = f.take(3); !ok {
			return io.ErrUnexpectedEOF
		}
		cl[s] = uint8(v)
	}
	if !build(f.lenT[:], cl[:], lenRoot, lenSyms[:]) {
		return errDeflate
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if f.nb < lenRoot {
			f.refill()
		}
		e := f.lenT[f.bits&(1<<lenRoot-1)]
		n := uint(e & 31)
		if n > f.nb || f.nb == 0 {
			return io.ErrUnexpectedEOF
		}
		if e&kindMask == kindBad {
			return errDeflate
		}
		f.bits >>= n
		f.nb -= n
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		rep, x, fill := 3, uint(2), uint8(0)
		switch sym {
		case 16:
			if i == 0 {
				return errDeflate
			}
			fill = lens[i-1]
		case 17:
			x = 3
		default:
			rep, x = 11, 7
		}
		if v, ok = f.take(x); !ok {
			return io.ErrUnexpectedEOF
		}
		if rep += int(v); i+rep > len(lens) {
			return errDeflate
		}
		for range rep {
			lens[i] = fill
			i++
		}
	}
	if !build(f.litT[:], lens[:nlit], litRoot, litSyms[:]) || !build(f.dstT[:], lens[nlit:], distRoot, distSyms[:]) {
		return errDeflate
	}
	return nil
}

// huffman decodes a Huffman block's symbols into out[w:] until the
// block ends or out is full. It is the decoder's inner loop: the bit
// buffer is held in locals, and put back on the way out.
func (f *inflater) huffman(out []byte, w, hist int) (int, error) {
	if f.left > 0 {
		if w = f.match(out, w); f.left > 0 {
			return w, nil
		}
	}
	lit, dst, in := f.lit, f.dst, f.in
	bits, nb, pos := f.bits, f.nb, f.pos
	defer func() { f.bits, f.nb, f.pos = bits, nb, pos }()
	var sbits uint64 // where the symbol being read starts, in case the input runs out in it
	var snb uint
	var spos int
	for {
		if nb < 48 {
			if pos+8 <= len(in) {
				bits |= binary.LittleEndian.Uint64(in[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				for ; nb <= 56 && pos < len(in); nb += 8 {
					bits |= uint64(in[pos]) << nb
					pos++
				}
				sbits, snb, spos = bits, nb, pos
			}
		}
		e := lit[bits&(1<<litRoot-1)]
		if e&kindMask == kindLink {
			e = lit[e>>16+uint32(bits>>litRoot)&(1<<(e>>8&0xff)-1)]
		}
		n := uint(e & 31)
		switch {
		case n > nb:
			goto short
		case e&kindMask == kindLiteral:
			if w == len(out) {
				return w, nil
			}
			bits >>= n
			nb -= n
			out[w] = byte(e >> 16)
			w++
			// Runs of literals are the common case: a second one is
			// taken without going round, when its bits are loaded.
			if e = lit[bits&(1<<litRoot-1)]; e&kindMask == kindLiteral && uint(e&31) <= nb && w < len(out) {
				n = uint(e & 31)
				bits >>= n
				nb -= n
				out[w] = byte(e >> 16)
				w++
			}
			continue
		case e&kindMask == kindEnd:
			bits >>= n
			nb -= n
			f.blockEnd()
			return w, nil
		case e&kindMask != kindBase:
			if nb == 0 {
				goto short
			}
			return w, errDeflate
		}
		x := uint(e >> 8 & 0xff)
		if n+x > nb {
			goto short
		}
		length := int(e>>16) + int(bits>>n&(1<<x-1))
		bits >>= n + x
		nb -= n + x

		e = dst[bits&(1<<distRoot-1)]
		if e&kindMask == kindLink {
			e = dst[e>>16+uint32(bits>>distRoot)&(1<<(e>>8&0xff)-1)]
		}
		n, x = uint(e&31), uint(e>>8&0xff)
		if e&kindMask != kindBase {
			if n > nb || nb == 0 {
				goto short
			}
			return w, errDeflate
		}
		if n+x > nb {
			goto short
		}
		dist := int(e>>16) + int(bits>>n&(1<<x-1))
		bits >>= n + x
		nb -= n + x
		if dist > w-hist {
			return w, errDeflate
		}
		if end := w + length; end <= len(out) {
			for src := w - dist; w < end; {
				w += copy(out[w:end], out[src:w])
			}
			continue
		}
		f.left, f.dist = length, dist
		return f.match(out, w), nil
	}
short:
	// The input ran out inside a symbol, which only happens once the
	// refills are taking the last bytes one at a time: the symbol is
	// read again, whole, from more input.
	if f.more {
		bits, nb, pos = sbits, snb, spos
	}
	return w, f.short()
}

// match copies as much of the match under way as out has room for. A
// match that overlaps what it copies is copied in runs that double.
func (f *inflater) match(out []byte, w int) int {
	end := min(w+f.left, len(out))
	f.left -= end - w
	for src := w - f.dist; w < end; {
		w += copy(out[w:end], out[src:w])
	}
	return w
}

// gunzipper reads gzip members, or one bare deflate stream, with an
// inflater: from memory, or from a reader through a pooled input buffer
// that holds only what the decoder has yet to use; into the caller's
// memory, or, for content that is streamed, through a window. It is
// pooled whole: the tables are most of its memory. The input buffer and
// the window are pooled apart, for the readers that use them.
type gunzipper struct {
	inflater
	gz      bool // members; bare deflate data otherwise
	done    bool // the stream has ended, trailer checked
	members int  // gzip members begun
	hist    int  // where in the buffer read fills the current member's content starts
	crc     uint32
	size    uint32
	total   int64 // content inflated since the stream began

	src   io.Reader // what in is read from, when the stream is not held
	input *[]byte   // in's memory then

	// The window, when there is one: buf[unread:filled] is inflated and
	// not yet read, and err is what comes after it.
	buf            *[windowSize]byte
	unread, filled int
	err            error

	out sink // what a range read raw is read into (span.appendRaw)
}

var gunzippers = sync.Pool{New: func() any { return new(gunzipper) }}

// inflated counts the content bytes every stream has inflated.
var inflated atomic.Int64

// InflatedBytes is how many content bytes this process has inflated, in
// every gzip stream and deflate segment it read: the meter by which tests
// hold a pull or a read to inflating each byte once, as
// hashing.DigestedBytes holds it to hashing each once.
func InflatedBytes() int64 { return inflated.Load() }

// inputs are what a stream read from a reader is read into, a piece at a
// time: the decoder goes on from where each piece runs out.
var inputs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// getGunzipper returns a pooled gunzipper started on data: a gzip stream
// if gz is set, bare deflate data otherwise.
func getGunzipper(data []byte, gz bool) *gunzipper {
	z := gunzippers.Get().(*gunzipper)
	z.gz, z.done, z.members, z.hist, z.total = gz, false, 0, 0, 0
	z.in, z.more = data, false
	z.reset(0)
	if gz {
		z.mode = modeMember
	}
	return z
}

// getReader is getGunzipper for the stream src holds.
func getReader(src io.Reader, gz bool) *gunzipper {
	z := getGunzipper(nil, gz)
	z.input = inputs.Get().(*[]byte)
	z.in, z.more, z.src = (*z.input)[:0], true, src
	return z
}

// release hands z back to the pool holding nothing of the stream.
func (z *gunzipper) release() {
	if z.buf != nil {
		windows.Put(z.buf)
		z.buf = nil
	}
	if z.input != nil {
		if cap(z.in) <= maxPooledBuf {
			*z.input = z.in[:0]
		}
		inputs.Put(z.input)
		z.input, z.src = nil, nil
	}
	z.in = nil
	gunzippers.Put(z)
}

// feed reads more of the stream from src. Of the input in hand it keeps
// what the decoder has yet to use, from the first byte it has not
// consumed whole.
func (z *gunzipper) feed() error {
	keep := z.end()
	n := copy(z.in[:cap(z.in)], z.in[keep:])
	z.in, z.pos = z.in[:n], z.pos-keep
	if n == cap(z.in) {
		// A gzip header longer than the buffer: it grows.
		z.in = append(z.in, 0)[:n]
	}
	var k int
	var err error
	// A reader that keeps returning nothing is given up on, as bufio does.
	for empty := 0; k == 0 && err == nil; empty++ {
		if empty == 100 {
			return io.ErrNoProgress
		}
		k, err = z.src.Read(z.in[n:cap(z.in)])
	}
	z.in = z.in[:n+k]
	if err == io.EOF {
		z.more = false
		return nil
	}
	return err
}

// member reads the header of the gzip member at z.pos, as compress/gzip
// reads one, and readies the inflater behind it.
func (z *gunzipper) member() error {
	in, p := z.in, z.pos
	if len(in)-p < 10 {
		return io.ErrUnexpectedEOF
	}
	if in[p] != gzipHeader[0] || in[p+1] != gzipHeader[1] || in[p+2] != gzipHeader[2] {
		return errHeader
	}
	const (
		flagHdrCrc  = 1 << 1
		flagExtra   = 1 << 2
		flagName    = 1 << 3
		flagComment = 1 << 4
	)
	flg, q := in[p+3], p+10
	if flg&flagExtra != 0 {
		if len(in)-q < 2 || len(in)-q-2 < int(binary.LittleEndian.Uint16(in[q:])) {
			return io.ErrUnexpectedEOF
		}
		q += 2 + int(binary.LittleEndian.Uint16(in[q:]))
	}
	for _, flag := range []byte{flagName, flagComment} {
		if flg&flag == 0 {
			continue
		}
		// compress/gzip reads a string into a 512-byte buffer.
		nul := -1
		for i, c := range in[q:min(len(in), q+512)] {
			if c == 0 {
				nul = i
				break
			}
		}
		if nul < 0 {
			if len(in)-q < 512 {
				return io.ErrUnexpectedEOF
			}
			return errHeader
		}
		q += nul + 1
	}
	if flg&flagHdrCrc != 0 {
		if len(in)-q < 2 {
			return io.ErrUnexpectedEOF
		}
		if binary.LittleEndian.Uint16(in[q:]) != uint16(crc32.ChecksumIEEE(in[p:q])) {
			return errHeader
		}
		q += 2
	}
	z.reset(q)
	z.crc, z.size = 0, 0
	return nil
}

// read inflates the stream into out[w:] until out is full or the stream
// has ended (z.done), and returns how far out is filled. A member's
// content does not reach back into the one before it: out[z.hist:w] is
// the history its matches may reach.
func (z *gunzipper) read(out []byte, w int) (int, error) {
	for !z.done {
		var err error
		if w, err = z.step(out, w); err == errMore {
			err = z.feed()
		} else if err == nil && !z.done {
			return w, nil // out is full
		}
		if err != nil {
			return w, err
		}
	}
	return w, nil
}

// step is read over the input in hand.
func (z *gunzipper) step(out []byte, w int) (int, error) {
	for !z.done {
		if z.mode == modeMember {
			// As compress/gzip reads them: one member, then as many as
			// follow until the stream ends.
			if z.pos == len(z.in) && !z.more && z.members > 0 {
				z.done = true
				break
			}
			if err := z.member(); err != nil {
				if err == io.ErrUnexpectedEOF {
					err = z.short()
				}
				return w, err
			}
			z.members++
			z.hist = w
		}
		from := w
		var err error
		w, err = z.decode(out, w, z.hist)
		z.total += int64(w - from)
		inflated.Add(int64(w - from))
		if !z.gz {
			z.done = err == nil && z.mode == modeEnd
			return w, err
		}
		z.crc = crc32.Update(z.crc, crc32.IEEETable, out[from:w])
		z.size += uint32(w - from)
		if err != nil || z.mode != modeEnd {
			return w, err
		}
		p := z.end()
		if len(z.in)-p < 8 {
			return w, z.short()
		}
		if binary.LittleEndian.Uint32(z.in[p:]) != z.crc || binary.LittleEndian.Uint32(z.in[p+4:]) != z.size {
			return w, errChecksum
		}
		z.pos, z.bits, z.nb, z.mode = p+8, 0, 0, modeMember
	}
	return w, nil
}

// A window is what content that is read rather than held is inflated
// into: the history its matches reach and room for what follows, so that
// reading content of any length takes this much memory.
const windowSize = histSize + 32<<10

var windows = sync.Pool{New: func() any { return new([windowSize]byte) }}

// openWindow is getGunzipper for content that is streamed.
func openWindow(data []byte, gz bool) *gunzipper {
	z := getGunzipper(data, gz)
	z.buf = windows.Get().(*[windowSize]byte)
	z.unread, z.filled, z.err = 0, 0, nil
	return z
}

// next returns up to k bytes of content not yet read, in the window's
// memory: they are valid until the next call. At the stream's end it
// returns io.EOF, and if the stream is damaged, the error that says so.
func (z *gunzipper) next(k int64) ([]byte, error) {
	for z.unread == z.filled {
		if z.err != nil {
			return nil, z.err
		}
		if z.filled == len(z.buf) {
			// Full: the history moves down to make room.
			k := z.filled - histSize
			copy(z.buf[:], z.buf[k:z.filled])
			z.unread, z.filled, z.hist = histSize, histSize, max(z.hist-k, 0)
		}
		z.filled, z.err = z.read(z.buf[:], z.filled)
		if z.err == nil && z.done {
			z.err = io.EOF
		}
	}
	n := int(min(int64(z.filled-z.unread), k))
	z.unread += n
	return z.buf[z.unread-n : z.unread], nil
}

// Read makes a window the io.Reader a tar parser reads.
func (z *gunzipper) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	b, err := z.next(int64(len(p)))
	return copy(p, b), err
}

// pass reads k bytes of content, folding them into crc and writing them
// to w.
func (z *gunzipper) pass(w io.Writer, crc uint32, k int64) (uint32, error) {
	for k > 0 {
		b, err := z.next(k)
		if err != nil {
			return crc, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		if _, err := w.Write(b); err != nil {
			return crc, err
		}
		k -= int64(len(b))
	}
	return crc, nil
}

// Gunzip decompresses gzip-framed data into one buffer sized from the
// ISIZE trailer (uncompressed length mod 2^32), as far as SizeHint
// trusts it. It is for streams whose trailer the caller wrote, such as
// a pool's own stored objects; a stream from a peer goes to GunzipFrom,
// which gives content memory as it inflates.
func Gunzip(data []byte) ([]byte, error) {
	size := int64(-1)
	if len(data) >= 8 {
		size = int64(binary.LittleEndian.Uint32(data[len(data)-4:]))
	}
	var room Room
	if hint := SizeHint(size, int64(len(data))); hint > 0 {
		room = func(int) int { return hint }
	}
	z := getGunzipper(data, true)
	defer z.release()
	out, err := z.readAll(room)
	if err != nil {
		return nil, fmt.Errorf("tarstream: gunzip: %w", err)
	}
	return out, nil
}

// GunzipFrom decompresses the gzip stream r holds, to r's end, into a
// buffer of the capacity room gives it. A nil room gives the content
// memory only as it inflates: it is inflated into pooled scratch and
// returned in a buffer of its own exact size. r is read a piece at a
// time, through a pooled buffer.
func GunzipFrom(r io.Reader, room Room) ([]byte, error) {
	z := getReader(r, true)
	defer z.release()
	out, err := z.readAll(room)
	if err != nil {
		return nil, fmt.Errorf("tarstream: gunzip: %w", err)
	}
	return out, nil
}

// readAll reads the whole stream into a buffer of the capacity room
// gives it, or, for a nil room, through pooled scratch into a buffer of
// its own exact size.
func (z *gunzipper) readAll(room Room) ([]byte, error) {
	var out []byte
	if room == nil {
		scratch := streams.Get().(*[]byte)
		defer streams.Put(scratch)
		out = (*scratch)[:0]
		defer func() {
			if cap(out) <= maxPooledBuf {
				*scratch = out[:0]
			}
		}()
	}
	for !z.done {
		if len(out) == cap(out) {
			c := 0
			if room != nil {
				c = room(len(out))
			}
			if c > len(out) {
				out = append(make([]byte, 0, c), out...)
			} else {
				out = append(out, 0)[:len(out)]
			}
		}
		w, err := z.read(out[:cap(out)], len(out))
		if out = out[:w]; err != nil {
			return nil, err
		}
	}
	if room == nil {
		return bytes.Clone(out), nil
	}
	return out, nil
}

// GunzipInto inflates the gzip stream r holds, to r's end, into exactly
// dst, for content whose size is known: content of any other length is
// an error. dst is the only memory the content is given; the end of the
// stream is found without a byte more of it.
func GunzipInto(dst []byte, r io.Reader) error {
	z := getReader(r, true)
	defer z.release()
	w, err := z.read(dst, 0)
	switch {
	case err != nil:
		return fmt.Errorf("tarstream: gunzip: %w", err)
	case !z.done:
		return fmt.Errorf("tarstream: gunzip: content is more than %d bytes", len(dst))
	case w < len(dst):
		return fmt.Errorf("tarstream: gunzip: content shorter than %d bytes: %w", len(dst), io.ErrUnexpectedEOF)
	}
	return nil
}

// GunzipTo inflates the gzip stream data into w and returns how many
// bytes that was, for a caller that wants the content's digest or length
// and not the content: nothing the size of the content is held. The
// stream is read to its end, so the CRC judges it as it does for Gunzip.
func GunzipTo(w io.Writer, data []byte) (int64, error) {
	z := openWindow(data, true)
	defer z.release()
	var n int64
	for {
		b, err := z.next(windowSize)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("tarstream: gunzip: %w", err)
		}
		k, err := w.Write(b)
		if n += int64(k); err != nil {
			return n, fmt.Errorf("tarstream: gunzip: %w", err)
		}
	}
}
