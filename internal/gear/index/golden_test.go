package index

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// The golden files pin the codec's exact output bytes: optimizations to
// EncodeBinary must stay bit-identical to the committed form,
// because index bytes feed layer digests and therefore image identity.
// Regenerate (only for a deliberate, versioned format change) with:
//
//	go test ./internal/gear/index -run TestCodecGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden codec files")

// goldenIndex builds a deterministic index exercising every entry shape:
// nested directories, duplicated regular files, symlinks, a chunked big
// file, varied modes, and a config with env/entrypoint/labels.
func goldenIndex(t *testing.T) *Index {
	t.Helper()
	fs := vfs.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll("/etc/app/conf.d", 0o755))
	must(fs.MkdirAll("/usr/lib", 0o755))
	must(fs.MkdirAll("/var/empty", 0o700))
	rng := rand.New(rand.NewSource(7))
	big := make([]byte, 10000)
	rng.Read(big)
	must(fs.WriteFile("/usr/lib/libbig.so", big, 0o644))
	for i := 0; i < 8; i++ {
		data := []byte(fmt.Sprintf("config file %d contents\n", i%5)) // dups
		must(fs.WriteFile(fmt.Sprintf("/etc/app/conf.d/%02d.conf", i), data, 0o640))
	}
	must(fs.WriteFile("/etc/app/app.bin", append([]byte{0, 1, 2}, big[:500]...), 0o755))
	must(fs.Symlink("/etc/app/app.bin", "/usr/lib/app"))
	must(fs.Symlink("../app.bin", "/etc/app/conf.d/link"))

	cfg := imagefmt.Config{
		Env:        []string{"PATH=/usr/bin", "MODE=golden"},
		Entrypoint: []string{"/etc/app/app.bin"},
		Labels:     map[string]string{"io.test": "golden"},
	}
	ix, _, err := BuildPolicy("golden", "v1", cfg, fs, nil, FixedChunks(4096))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: output diverges from golden at byte %d (got %d bytes, want %d)",
			name, i, len(got), len(want))
	}
}

// TestCodecGolden pins the codec's bytes against the committed
// pre-optimization golden file.
func TestCodecGolden(t *testing.T) {
	ix := goldenIndex(t)

	bin, err := EncodeBinary(ix)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_index.bin", bin)

	// The form must round-trip to the same tree it encoded.
	back, err := DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	bin2, err := EncodeBinary(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, bin2) {
		t.Fatal("binary round trip is not idempotent")
	}
}
