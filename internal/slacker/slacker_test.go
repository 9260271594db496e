package slacker

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

func testImage(t *testing.T, tag string, extra map[string]string) *imagefmt.Image {
	t.Helper()
	f := vfs.New()
	if err := f.MkdirAll("/opt", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/opt/big", bytes.Repeat([]byte{0x11}, 10000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/opt/small", []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	for p, content := range extra {
		if err := f.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	img, err := imagefmt.SingleLayerImage("app", tag, f, imagefmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// fetched tallies what a client pages in, through its fetch callback.
type fetched struct{ blocks, bytes int64 }

func (f *fetched) add(blocks int, bytes int64) {
	f.blocks += int64(blocks)
	f.bytes += bytes
}

func setup(t *testing.T) (*Server, *Client, *fetched) {
	t.Helper()
	srv := NewServer()
	bi, err := FromImage(testImage(t, "v1", nil), DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	srv.Put(bi)
	f := new(fetched)
	return srv, NewClient(srv, f.add), f
}

func TestMountAndRead(t *testing.T) {
	_, c, f := setup(t)
	if err := c.Mount("c1", "app:v1"); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("c1", "/opt/big")
	if err != nil || len(got) != 10000 {
		t.Fatalf("ReadFile = %d bytes, %v", len(got), err)
	}
	got, err = c.ReadFile("c1", "/opt/small")
	if err != nil || string(got) != "tiny" {
		t.Errorf("small = %q, %v", got, err)
	}
	// big spans 3 blocks (10000/4096), small 1, plus metadata.
	if f.blocks < 4 {
		t.Errorf("blocks fetched = %d", f.blocks)
	}
}

func TestBlockGranularityFetchesWholeBlocks(t *testing.T) {
	_, c, f := setup(t)
	if err := c.Mount("c1", "app:v1"); err != nil {
		t.Fatal(err)
	}
	before := f.bytes
	if _, err := c.ReadFile("c1", "/opt/small"); err != nil {
		t.Fatal(err)
	}
	delta := f.bytes - before
	if delta != DefaultBlockSize {
		t.Errorf("4-byte file fetched %d bytes, want one full block %d", delta, DefaultBlockSize)
	}
}

func TestRereadUsesBlockCache(t *testing.T) {
	_, c, f := setup(t)
	if err := c.Mount("c1", "app:v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("c1", "/opt/big"); err != nil {
		t.Fatal(err)
	}
	before := f.blocks
	if _, err := c.ReadFile("c1", "/opt/big"); err != nil {
		t.Fatal(err)
	}
	if got := f.blocks; got != before {
		t.Errorf("re-read fetched %d more blocks", got-before)
	}
}

func TestNoSharingAcrossContainers(t *testing.T) {
	// The defining Slacker limitation in Fig 10: a second container
	// re-fetches blocks the first already paged in.
	_, c, f := setup(t)
	if err := c.Mount("c1", "app:v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("c1", "/opt/big"); err != nil {
		t.Fatal(err)
	}
	first := f.blocks
	if err := c.Mount("c2", "app:v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("c2", "/opt/big"); err != nil {
		t.Fatal(err)
	}
	second := f.blocks - first
	if second < 3 {
		t.Errorf("second container fetched only %d blocks; sharing should not exist", second)
	}
}

func TestNoDedupOnServer(t *testing.T) {
	srv := NewServer()
	for _, tag := range []string{"v1", "v2"} {
		bi, err := FromImage(testImage(t, tag, nil), DefaultBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		srv.Put(bi)
	}
	// Identical content stored twice: each image holds a device of its own.
	v1, err := srv.Get("app:v1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := srv.Get("app:v2")
	if err != nil {
		t.Fatal(err)
	}
	if shared := &v1.device[0] == &v2.device[0]; shared || v1.DeviceSize() != v2.DeviceSize() {
		t.Errorf("devices of %d and %d bytes, shared = %v; want two equal, separate copies (no dedup)",
			v1.DeviceSize(), v2.DeviceSize(), shared)
	}
}

func TestErrors(t *testing.T) {
	c2 := NewClient(NewServer(), nil)
	if err := c2.Mount("c1", "ghost:v1"); !errors.Is(err, ErrNoImage) {
		t.Errorf("err = %v, want ErrNoImage", err)
	}
	_, client, _ := setup(t)
	if _, err := client.ReadFile("c1", "/opt/big"); !errors.Is(err, ErrNoMount) {
		t.Errorf("err = %v, want ErrNoMount", err)
	}
	if err := client.Mount("c1", "app:v1"); err != nil {
		t.Fatal(err)
	}
	if err := client.Mount("c1", "app:v1"); !errors.Is(err, ErrMountExists) {
		t.Errorf("err = %v, want ErrMountExists", err)
	}
	if _, err := client.ReadFile("c1", "/no/such"); !errors.Is(err, ErrNotFile) {
		t.Errorf("err = %v, want ErrNotFile", err)
	}
	if err := client.Unmount("c1"); err != nil {
		t.Fatal(err)
	}
	if err := client.Unmount("c1"); !errors.Is(err, ErrNoMount) {
		t.Errorf("err = %v, want ErrNoMount", err)
	}
}

func TestOnFetchHook(t *testing.T) {
	srv := NewServer()
	bi, err := FromImage(testImage(t, "v1", nil), 0) // 0 -> default block size
	if err != nil {
		t.Fatal(err)
	}
	srv.Put(bi)
	var blocks int
	var total int64
	c := NewClient(srv, func(n int, b int64) { blocks += n; total += b })
	if err := c.Mount("c1", "app:v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("c1", "/opt/big"); err != nil {
		t.Fatal(err)
	}
	// The metadata blocks on mount, then the 3 blocks the big file spans.
	if want := bi.metaBlocks + 3; blocks != want || total != int64(want)*DefaultBlockSize {
		t.Errorf("hook saw %d blocks / %d bytes, want %d / %d", blocks, total, want, int64(want)*DefaultBlockSize)
	}
}

func TestEmptyFile(t *testing.T) {
	srv := NewServer()
	bi, err := FromImage(testImage(t, "v1", map[string]string{"/opt/empty": ""}), DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	srv.Put(bi)
	c := NewClient(srv, nil)
	if err := c.Mount("c1", "app:v1"); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("c1", "/opt/empty")
	if err != nil || len(got) != 0 {
		t.Errorf("empty read = %d bytes, %v", len(got), err)
	}
}

func TestMoreRequestsThanGearWouldNeed(t *testing.T) {
	// Block-granularity request inflation: reading N files costs strictly
	// more requests than N (metadata + per-block fetches).
	_, c, f := setup(t)
	if err := c.Mount("c1", "app:v1"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/opt/big", "/opt/small"} {
		if _, err := c.ReadFile("c1", p); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.blocks; got <= 2 {
		t.Errorf("blocks fetched = %d, want > file count", got)
	}
}
