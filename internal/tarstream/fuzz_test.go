package tarstream

import (
	"bytes"
	"testing"

	"github.com/gear-image/gear/internal/vfs"
)

// FuzzUnpack: arbitrary bytes must never panic the unpacker, and any
// archive it accepts must re-pack deterministically.
func FuzzUnpack(f *testing.F) {
	tree := vfs.New()
	_ = tree.MkdirAll("/d", 0o755)
	_ = tree.WriteFile("/d/f", []byte("content"), 0o644)
	_ = tree.Symlink("f", "/d/l")
	_ = tree.WriteFile("/d/.wh.gone", nil, 0)
	seed, err := Pack(tree)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("not a tar archive at all, definitely"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs1, err := Unpack(data)
		if err != nil {
			return
		}
		a, err := Pack(fs1)
		if err != nil {
			t.Fatalf("accepted tree fails to pack: %v", err)
		}
		fs2, err := Unpack(a)
		if err != nil {
			t.Fatalf("our own archive fails to unpack: %v", err)
		}
		b, err := Pack(fs2)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatal("pack/unpack not a fixed point")
		}
	})
}

// FuzzGunzip: arbitrary bytes must never panic the decompressor.
func FuzzGunzip(f *testing.F) {
	z, err := Gzip([]byte("hello gzip"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(z)
	f.Add([]byte{0x1f, 0x8b})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Gunzip(data)
		if err != nil {
			return
		}
		// Accepted payloads round-trip through our compressor.
		z, err := Gzip(out)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Gunzip(z)
		if err != nil || string(back) != string(out) {
			t.Fatalf("round trip: %v", err)
		}
	})
}

// FuzzGunzipRange: over any object and any range, GunzipRange is the
// slice of Gunzip or an error, never a panic and never other bytes; and
// a range that fits a sound object always succeeds.
func FuzzGunzipRange(f *testing.F) {
	f.Add([]byte("hello gzip range"), int64(0), int64(5))
	f.Add([]byte("hello gzip range"), int64(6), int64(10))
	f.Add([]byte("hello gzip range"), int64(16), int64(1)) // past the end
	f.Add([]byte("hello gzip range"), int64(-1), int64(4))
	f.Add([]byte{}, int64(0), int64(0))
	f.Fuzz(func(t *testing.T, content []byte, off, n int64) {
		z, err := Gzip(content)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GunzipRange(nil, z, off, n)
		fits := off >= 0 && n >= 0 && off <= int64(len(content)) && n <= int64(len(content))-off
		if !fits {
			if err == nil {
				t.Fatalf("range [%d,+%d) of %d bytes accepted", off, n, len(content))
			}
			return
		}
		if err != nil {
			t.Fatalf("range [%d,+%d) of %d bytes: %v", off, n, len(content), err)
		}
		if !bytes.Equal(got, content[off:off+n]) {
			t.Fatalf("range [%d,+%d) returned other bytes", off, n)
		}
	})
}
