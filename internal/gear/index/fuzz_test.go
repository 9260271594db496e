package index

import (
	"bytes"
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

// FuzzDecode: decoding an index must never panic, and everything it
// accepts must validate, re-encode, and list each of its files once. The
// seeds are a sound index and the shapes at the edge of one: no tree, a
// bare root, a file of an all-zero fingerprint, no index at all, and
// entries named "." and "..".
func FuzzDecode(f *testing.F) {
	root := vfs.New()
	_ = root.MkdirAll("/a", 0o755)
	_ = root.WriteFile("/a/f", []byte("x"), 0o644)
	_ = root.Symlink("t", "/a/l")
	ix, _, err := Build("seed", "v1", imagefmt.Config{}, root, nil)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := EncodeBinary(ix)
	if err != nil {
		f.Fatal(err)
	}
	dir := func(children ...*Entry) *Entry { return &Entry{Type: vfs.TypeDir, Children: children} }
	f.Add(enc)
	f.Add(rawIndex(nil))
	f.Add(rawIndex(dir()))
	f.Add(rawIndex(dir(&Entry{Name: "x", Type: vfs.TypeRegular, Fingerprint: "00000000000000000000000000000000"})))
	f.Add([]byte("not an index"))
	f.Add(rawIndex(dir(&Entry{Name: ".", Type: vfs.TypeDir})))
	f.Add(rawIndex(dir(&Entry{Name: "..", Type: vfs.TypeDir})))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("DecodeBinary accepted an invalid index: %v", err)
		}
		if _, err := EncodeBinary(ix); err != nil {
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
		if !bytes.Equal(again, canonical(t, back)) {
			t.Fatal("binary codec not a fixed point")
		}
	})
}
