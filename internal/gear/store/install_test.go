package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/hashing"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// installFixture is an image with every shape of entry — nested
// directories, duplicate contents, a symlink, a chunked big file — its
// index, the index image a deploy pulls, and a registry holding its files.
func installFixture(t *testing.T) (ix *index.Index, img *imagefmt.Image, reg *gearregistry.Registry, paths []string) {
	t.Helper()
	root := vfs.New()
	big := make([]byte, 20000)
	rand.New(rand.NewSource(5)).Read(big)
	for _, err := range []error{
		root.MkdirAll("/usr/lib/app", 0o755),
		root.MkdirAll("/etc", 0o750),
		root.WriteFile("/usr/lib/app/model.bin", big, 0o644),
		root.WriteFile("/usr/lib/app/run", bytes.Repeat([]byte{0xcd}, 3000), 0o755),
		root.WriteFile("/etc/conf", []byte("port=80\n"), 0o640),
		root.WriteFile("/etc/conf.bak", []byte("port=80\n"), 0o600),
		root.WriteFile("/etc/empty", nil, 0o644),
		root.Symlink("/usr/lib/app/run", "/run"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	ix, pool, err := index.BuildPolicy("app", "v1", imagefmt.Config{Env: []string{"A=b"}}, root, nil, index.FixedChunks(4096))
	if err != nil {
		t.Fatal(err)
	}
	reg = gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	if img, err = ix.ToImage(); err != nil {
		t.Fatal(err)
	}
	_ = root.Walk(func(p string, _ *vfs.Node) error {
		paths = append(paths, p)
		return nil
	})
	return ix, img, reg, append(paths, "/missing")
}

// A container cannot tell which way its image was installed: from the
// Entry tree (AddIndex) or straight from the blob (InstallImage), every
// Stat, ReadDir, read, ranged read and fingerprint translation answers
// the same, and costs the same transfers.
func TestInstallImageMatchesAddIndex(t *testing.T) {
	ix, img, reg, paths := installFixture(t)
	viaIndex, viaImage := newStore(t, reg), newStore(t, reg)
	if err := viaIndex.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if err := viaImage.InstallImage(img); err != nil {
		t.Fatal(err)
	}
	if err := viaImage.InstallImage(img); err == nil {
		t.Error("InstallImage installed the same image twice")
	}
	a, err := viaIndex.CreateContainer("c", "app:v1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaImage.CreateContainer("c", "app:v1")
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, x, y any, xerr, yerr error) {
		t.Helper()
		if !reflect.DeepEqual(x, y) || fmt.Sprint(xerr) != fmt.Sprint(yerr) {
			t.Errorf("%s: AddIndex gives %v, %v; InstallImage gives %v, %v", what, x, xerr, y, yerr)
		}
	}
	fa, aerr := viaIndex.Fingerprints("app:v1", paths)
	fb, berr := viaImage.Fingerprints("app:v1", paths)
	same("Fingerprints", fa, fb, aerr, berr)
	if len(fa) < 8 {
		t.Errorf("Fingerprints = %d objects, want the files' and the chunks'", len(fa))
	}
	for _, p := range paths {
		sa, aerr := a.Stat(p)
		sb, berr := b.Stat(p)
		same("Stat "+p, sa, sb, aerr, berr)
		da, aerr := a.ReadDir(p)
		db, berr := b.ReadDir(p)
		same("ReadDir "+p, da, db, aerr, berr)
	}
	// Ranged reads of the chunked file first, while it is still chunks.
	for _, r := range [][2]int64{{5000, 4000}, {0, 1}, {19000, 5000}} {
		ra, aerr := a.ReadAt("/usr/lib/app/model.bin", r[0], r[1])
		rb, berr := b.ReadAt("/usr/lib/app/model.bin", r[0], r[1])
		same(fmt.Sprintf("ReadAt %v", r), ra, rb, aerr, berr)
	}
	for _, p := range paths {
		ra, aerr := a.ReadFile(p)
		rb, berr := b.ReadFile(p)
		same("ReadFile "+p, ra, rb, aerr, berr)
		sa, aerr := a.Stat(p)
		sb, berr := b.Stat(p)
		same("Stat after read "+p, sa, sb, aerr, berr)
	}
	fa, aerr = viaIndex.Fingerprints("app:v1", paths)
	fb, berr = viaImage.Fingerprints("app:v1", paths)
	same("Fingerprints after materialization", fa, fb, aerr, berr)
	if len(fa) != 0 {
		t.Errorf("Fingerprints after every file was read = %v, want none", fa)
	}
	sa, sb := metrics(viaIndex), metrics(viaImage)
	if sa.Counter("store.remote.objects") != sb.Counter("store.remote.objects") || sa.Counter("store.remote.bytes") != sb.Counter("store.remote.bytes") || sa.Counter("store.demand.misses") != sb.Counter("store.demand.misses") {
		t.Errorf("AddIndex route moved %d objects / %d bytes in %d misses, InstallImage route %d / %d in %d",
			sa.Counter("store.remote.objects"), sa.Counter("store.remote.bytes"), sa.Counter("store.demand.misses"), sb.Counter("store.remote.objects"), sb.Counter("store.remote.bytes"), sb.Counter("store.demand.misses"))
	}
}

// An image installed from its blob holds no Entry tree, and the mounted
// tree forgets a file's fingerprint once the file is relinked: Index,
// Prefetch and Commit still see the whole index, because they derive it
// from the retained blob — also while containers fault and commit at
// once.
func TestLazyIndexAfterMaterialization(t *testing.T) {
	ix, img, reg, paths := installFixture(t)
	s := newStore(t, reg)
	if err := s.InstallImage(img); err != nil {
		t.Fatal(err)
	}
	v, err := s.CreateContainer("c0", "app:v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/etc/conf", "/usr/lib/app/model.bin"} {
		if _, err := v.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, lazy := index.StubOf(s.indexes["app:v1"].Tree.Lookup("/etc/conf")); lazy {
		t.Fatal("/etc/conf was read and is still a placeholder in the mounted tree")
	}

	// Commits and faults from several containers at once, the first of
	// them racing to derive the index.
	want, _ := index.EncodeBinary(ix)
	var wg sync.WaitGroup
	for i := 1; i <= 4; i++ {
		id := fmt.Sprintf("c%d", i)
		cv, err := s.CreateContainer(id, "app:v1")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, p := range paths[:len(paths)-1] {
				if info, err := cv.Stat(p); err != nil {
					t.Errorf("%s: Stat %s: %v", id, p, err)
				} else if info.Type == vfs.TypeRegular {
					if _, err := cv.ReadFile(p); err != nil {
						t.Errorf("%s: ReadFile %s: %v", id, p, err)
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			if err := cv.WriteFile("/etc/extra", []byte("from "+id), 0o644); err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			newIx, newFiles, err := s.Commit(id, "app", "v2-"+id)
			if err != nil {
				t.Errorf("Commit %s: %v", id, err)
				return
			}
			if len(newFiles) != 1 || newIx.Lookup("/etc/extra") == nil {
				t.Errorf("Commit %s: %d new files, /etc/extra = %v", id, len(newFiles), newIx.Lookup("/etc/extra"))
			}
			// The relinked files kept their fingerprints and chunk lists.
			for _, p := range []string{"/etc/conf", "/usr/lib/app/model.bin", "/usr/lib/app/run"} {
				if got, want := newIx.Lookup(p), ix.Lookup(p); got == nil || got.Fingerprint != want.Fingerprint || !reflect.DeepEqual(got.Chunks, want.Chunks) {
					t.Errorf("Commit %s: %s = %+v, want %+v", id, p, got, want)
				}
			}
		}()
	}
	wg.Wait()

	got, err := s.Index("app:v1")
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := index.EncodeBinary(got); !bytes.Equal(enc, want) {
		t.Error("Index of a blob-installed image is not the index that was published")
	}
	if again, _ := s.Index("app:v1"); again != got {
		t.Error("Index derived the Entry tree twice")
	}

	// A second store: nothing read yet, everything linked once read.
	s2 := newStore(t, reg)
	if err := s2.InstallImage(img); err != nil {
		t.Fatal(err)
	}
	v2, err := s2.CreateContainer("c", "app:v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		_, _ = v2.ReadFile(p) // directories and /missing fail; files link
	}
	if fps, err := s2.Fingerprints("app:v1", paths); err != nil || len(fps) != 0 {
		t.Errorf("after reading every file, Fingerprints = %v, %v: placeholders are left", fps, err)
	}
}

// Removing an image while a container runs defers the release of the
// tree's hard links; the last container to go performs it, so the files
// the image pinned become candidates for replacement (§III-D1) instead of
// staying pinned for the life of the daemon.
func TestRemovedImageReleasesPinsWithLastContainer(t *testing.T) {
	ix, reg := fixture(t)
	s := mustStore(t, Options{Remote: reg, CacheCapacity: 6000})
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	v1, err := s.CreateContainer("c1", "web:v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateContainer("c2", "web:v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := v1.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	app := ix.Lookup("/bin/app").Fingerprint
	pinned, ok := s.Cache().Peek(app)
	if !ok || pinned.Nlink() != 1 {
		t.Fatalf("/bin/app after a read: cached %v, nlink %d, want linked once into the index tree", ok, pinned.Nlink())
	}
	if err := s.RemoveIndex("web:v1"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveContainer("c1"); err != nil {
		t.Fatal(err)
	}
	if pinned.Nlink() != 1 {
		t.Errorf("nlink = %d with a container still on the removed image's tree, want 1", pinned.Nlink())
	}
	// The same reference installed again is another image: its containers
	// do not keep the old tree, and the old tree's do not count for it.
	if err := s.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateContainer("c3", "web:v1"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveContainer("c2"); err != nil {
		t.Fatal(err)
	}
	if pinned.Nlink() != 0 {
		t.Errorf("nlink = %d after the last container of the removed image went, want 0", pinned.Nlink())
	}
	// Evictable in fact: 4 096 bytes of /bin/app make way for new content.
	for i := 0; i < 3; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 2000)
		if _, err := s.Cache().Put(hashing.FingerprintBytes(data), data); err != nil {
			t.Fatal(err)
		}
	}
	if s.Cache().Contains(app) {
		t.Error("/bin/app is still cached under pressure: the removed image pins it")
	}
}

// A reference that is removed and installed again with other content is
// another image: a container faults into the tree it was created on, so
// the containers of the old image and of the new one never read each
// other's bytes, whichever of them reads a path first.
func TestRetaggedImageDoesNotCrossContainers(t *testing.T) {
	reg := gearregistry.New(gearregistry.Options{})
	build := func(conf string) *imagefmt.Image {
		t.Helper()
		root := vfs.New()
		if err := root.MkdirAll("/etc", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := root.WriteFile("/etc/conf", []byte(conf), 0o644); err != nil {
			t.Fatal(err)
		}
		ix, pool, err := index.Build("app", "latest", imagefmt.Config{}, root, nil)
		if err != nil {
			t.Fatal(err)
		}
		for fp, data := range pool {
			if err := reg.Upload(fp, data); err != nil {
				t.Fatal(err)
			}
		}
		img, err := ix.ToImage()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	v1, v2 := build("version one\n"), build("version two, longer\n")
	for _, oldFirst := range []bool{true, false} {
		s := newStore(t, reg)
		if err := s.InstallImage(v1); err != nil {
			t.Fatal(err)
		}
		c1, err := s.CreateContainer("c1", "app:latest")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveIndex("app:latest"); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallImage(v2); err != nil {
			t.Fatal(err)
		}
		c2, err := s.CreateContainer("c2", "app:latest")
		if err != nil {
			t.Fatal(err)
		}
		reads := []struct {
			name string
			v    interface{ ReadFile(string) ([]byte, error) }
			want string
		}{{"the removed image's container", c1, "version one\n"}, {"the new image's container", c2, "version two, longer\n"}}
		if !oldFirst {
			reads[0], reads[1] = reads[1], reads[0]
		}
		// A commit is of the container's own image too.
		for id, size := range map[string]int64{"c1": int64(len("version one\n")), "c2": int64(len("version two, longer\n"))} {
			ix, _, err := s.Commit(id, "app", "next")
			if err != nil {
				t.Fatalf("Commit %s: %v", id, err)
			}
			if e := ix.Lookup("/etc/conf"); e == nil || e.Size != size {
				t.Errorf("Commit %s: /etc/conf = %+v, want the %d bytes of the image it runs", id, e, size)
			}
		}
		for round := 0; round < 2; round++ { // the fault, then the linked file
			for _, r := range reads {
				if got, err := r.v.ReadFile("/etc/conf"); err != nil || string(got) != r.want {
					t.Errorf("old image read first = %v, round %d: %s reads %q, %v, want %q", oldFirst, round, r.name, got, err, r.want)
				}
			}
		}
	}
}
