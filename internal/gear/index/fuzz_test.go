package index

import (
	"testing"

	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// FuzzParsePlaceholder: the parser must never panic and must round-trip
// everything it accepts.
func FuzzParsePlaceholder(f *testing.F) {
	f.Add([]byte("gearfp:d41d8cd98f00b204e9800998ecf8427e:123\n"))
	f.Add([]byte("gearfp:d41d8cd98f00b204e9800998ecf8427e-c2:0\n"))
	f.Add([]byte("gearfp::\n"))
	f.Add([]byte("not a placeholder"))
	f.Add([]byte{})
	f.Add([]byte("gearfp:zzzz:9"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fp, size, err := ParsePlaceholder(data)
		if err != nil {
			return
		}
		if err := fp.Validate(); err != nil {
			t.Fatalf("accepted invalid fingerprint %q: %v", fp, err)
		}
		if size < 0 {
			t.Fatalf("accepted negative size %d", size)
		}
		// Accepted records re-render to a parseable record with the same
		// meaning (not necessarily byte-identical: trailing newline).
		fp2, size2, err := ParsePlaceholder(Placeholder(fp, size))
		if err != nil || fp2 != fp || size2 != size {
			t.Fatalf("round trip: %s/%d -> %s/%d, %v", fp, size, fp2, size2, err)
		}
	})
}

// FuzzDecode: index JSON decoding must never panic, and everything it
// accepts must validate and re-encode.
func FuzzDecode(f *testing.F) {
	root := vfs.New()
	_ = root.MkdirAll("/a", 0o755)
	_ = root.WriteFile("/a/f", []byte("x"), 0o644)
	_ = root.Symlink("t", "/a/l")
	ix, _, err := Build("seed", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := Encode(ix)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"a","tag":"b","root":{"name":"","type":2}}`))
	f.Add([]byte(`{"root":{"type":2,"children":[{"name":"x","type":1,"fingerprint":"00000000000000000000000000000000"}]}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"name":"a","tag":"b","root":{"name":"","type":2,"children":[{"name":".","type":2}]}}`))
	f.Add([]byte(`{"name":"a","tag":"b","root":{"name":"","type":2,"children":[{"name":"..","type":2}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Decode(data)
		if err != nil {
			return
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid index: %v", err)
		}
		if _, err := Encode(ix); err != nil {
			t.Fatalf("accepted index fails to re-encode: %v", err)
		}
		// Files() must return valid, deduplicated references.
		seen := make(map[hashing.Fingerprint]bool)
		for _, ref := range ix.Files() {
			if seen[ref.Fingerprint] {
				t.Fatalf("duplicate file ref %s", ref.Fingerprint)
			}
			seen[ref.Fingerprint] = true
		}
	})
}

// FuzzDecodeBinary: the binary decoder must never panic and everything
// it accepts must validate and round-trip.
func FuzzDecodeBinary(f *testing.F) {
	root := vfs.New()
	_ = root.MkdirAll("/a", 0o755)
	_ = root.WriteFile("/a/f", []byte("x"), 0o644)
	_ = root.Symlink("t", "/a/l")
	ix, _, err := Build("seed", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		f.Fatal(err)
	}
	bin, err := EncodeBinary(ix)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Add([]byte("GIX1"))
	f.Add([]byte{})
	// Entries named "." and "..": sound but for the name.
	for _, blob := range dotNameBlobs(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("DecodeBinary accepted invalid index: %v", err)
		}
		// What decodes installs, and reads back as itself: no name the
		// decoder lets through is anything but itself in the mounted tree.
		tree, err := ix.ToTree()
		if err != nil {
			t.Fatalf("decoded index does not install: %v", err)
		}
		if _, err := FromTree(ix.Name, ix.Tag, ix.Config, tree); err != nil {
			t.Fatalf("installed tree does not read back: %v", err)
		}
		again, err := EncodeBinary(ix)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := DecodeBinary(again)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		a, _ := Encode(ix)
		b, _ := Encode(back)
		if string(a) != string(b) {
			t.Fatal("binary codec not a fixed point")
		}
	})
}
