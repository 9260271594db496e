package main

import "encoding/binary"

// contentGen produces file contents as a pure function of (seed, file,
// offset), so the oracle can say what any byte range must hold without
// keeping the files. Contents alternate 64 KiB runs of incompressible
// bytes with runs of blocks repeating a 64-byte pattern: gzip gets them
// to about half, like a blend of binaries and text.
type contentGen struct{ seed uint64 }

const (
	genBlock = 4096
	genRun   = 16 // blocks per run of one kind
)

// fill writes bytes [off, off+len(dst)) of the generated file.
func (g contentGen) fill(dst []byte, file uint64, off int64) {
	var blk [genBlock]byte
	for len(dst) > 0 {
		g.block(&blk, file, uint64(off/genBlock))
		n := copy(dst, blk[off%genBlock:])
		dst = dst[n:]
		off += int64(n)
	}
}

func (g contentGen) block(blk *[genBlock]byte, file, b uint64) {
	state := splitmix(g.seed ^ splitmix(file<<40^b))
	random := genBlock
	if b/genRun%2 == 1 {
		random = 64
	}
	for i := 0; i < random; i += 8 {
		state = splitmix(state)
		binary.LittleEndian.PutUint64(blk[i:], state)
	}
	for n := random; n < genBlock; n *= 2 {
		copy(blk[n:], blk[:n])
	}
}

// splitmix is the splitmix64 step: a fixed, seedable bit mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
