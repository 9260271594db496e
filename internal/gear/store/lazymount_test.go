package store

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/gear-image/gear/internal/gear/index"
	"github.com/gear-image/gear/internal/gear/viewer"
	"github.com/gear-image/gear/internal/gearregistry"
	"github.com/gear-image/gear/internal/imagefmt"
	"github.com/gear-image/gear/internal/vfs"
)

// lazyFixture is a random image of nested directories, duplicate
// contents, symlinks and a few chunked files, its index, the image a
// deploy pulls, the registry holding its files, and paths to ask for:
// every one it has, and some it has not.
func lazyFixture(t *testing.T, seed int64) (*index.Index, *imagefmt.Image, *gearregistry.Registry, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	root := vfs.New()
	dirs := []string{""}
	for i := 0; i < 70; i++ {
		p := fmt.Sprintf("%s/n%02d", dirs[rng.Intn(len(dirs))], i)
		var err error
		switch k := rng.Intn(10); {
		case k < 2:
			if err = root.Mkdir(p, 0o755); err == nil {
				dirs = append(dirs, p)
			}
		case k < 3:
			err = root.Symlink("n00", p)
		case k < 4: // chunked: FixedChunks(512) below
			data := make([]byte, 1500+rng.Intn(2000))
			rng.Read(data)
			err = root.WriteFile(p, data, 0o644)
		default: // few distinct contents: duplicates are common
			err = root.WriteFile(p, bytes.Repeat([]byte{byte('a' + rng.Intn(12))}, 1+rng.Intn(200)), 0o600|fs.FileMode(rng.Intn(2)*0o44))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ix, pool, err := index.BuildPolicy("app", "v1", imagefmt.Config{}, root, nil, index.FixedChunks(512), 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := gearregistry.New(gearregistry.Options{})
	for fp, data := range pool {
		if err := reg.Upload(fp, data); err != nil {
			t.Fatal(err)
		}
	}
	img, err := ix.ToImage()
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"/", "/missing", "/n00/missing/below"}
	_ = root.Walk(func(p string, _ *vfs.Node) error {
		paths = append(paths, p)
		return nil
	})
	return ix, img, reg, paths
}

// lazyOp is one call a container makes, and what it answered, as text.
type lazyOp func(s *Store, id string, v *viewer.Viewer) string

// randomOp draws a call on paths. Only some of what a container can do is
// answered the same whatever the other container has done by then: own
// says whether the draw is to be one of those.
func randomOp(rng *rand.Rand, paths []string, own bool) lazyOp {
	p := paths[rng.Intn(len(paths))]
	switch k := rng.Intn(12); {
	case k < 2 && !own: // Lazy tells whether anybody has read the file yet
		return func(_ *Store, _ string, v *viewer.Viewer) string {
			info, err := v.Stat(p)
			return fmt.Sprintf("Stat %s = %+v, %v", p, info, err)
		}
	case k < 2:
		return func(_ *Store, _ string, v *viewer.Viewer) string {
			info, err := v.Stat(p)
			info.Lazy = false
			return fmt.Sprintf("Stat %s = %+v, %v", p, info, err)
		}
	case k < 4:
		return func(_ *Store, _ string, v *viewer.Viewer) string {
			names, err := v.ReadDir(p)
			return fmt.Sprintf("ReadDir %s = %v, %v", p, names, err)
		}
	case k < 7:
		return func(_ *Store, _ string, v *viewer.Viewer) string {
			data, err := v.ReadFile(p)
			return fmt.Sprintf("ReadFile %s = %x, %v", p, data, err)
		}
	case k < 9:
		off, n := int64(rng.Intn(3000)), int64(rng.Intn(1200))
		return func(_ *Store, _ string, v *viewer.Viewer) string {
			data, err := v.ReadAt(p, off, n)
			return fmt.Sprintf("ReadAt %s [%d,+%d) = %x, %v", p, off, n, data, err)
		}
	case k < 10:
		return func(_ *Store, _ string, v *viewer.Viewer) string {
			link, err := v.Readlink(p)
			return fmt.Sprintf("Exists %s = %v, Readlink = %q, %v", p, v.Exists(p), link, err)
		}
	case k < 11:
		data := []byte(fmt.Sprint("written ", rng.Int()))
		over := rng.Intn(2) == 0
		return func(_ *Store, _ string, v *viewer.Viewer) string {
			at := p
			if !over {
				at = strings.TrimSuffix(p, "/") + "/new"
			}
			werr := v.WriteFile(at, data, 0o644)
			rerr := v.Remove(paths[(len(at)*7)%len(paths)])
			return fmt.Sprintf("WriteFile %s: %v, Remove: %v", at, werr, rerr)
		}
	default:
		return func(s *Store, id string, _ *viewer.Viewer) string {
			ix, files, err := s.Commit(id, "app", "next")
			if err != nil {
				return "Commit: " + err.Error()
			}
			enc, _ := index.Encode(ix)
			return fmt.Sprintf("Commit = %x, %d new files", enc, len(files))
		}
	}
}

// mountBoth installs the image in two stores, lazily from its blob and
// eagerly from the Entry tree (ToTree), with two containers on each.
func mountBoth(t *testing.T, ix *index.Index, img *imagefmt.Image, reg *gearregistry.Registry) (stores [2]*Store, views [2][2]*viewer.Viewer) {
	t.Helper()
	for i := range stores {
		stores[i] = newStore(t, reg)
	}
	if err := stores[0].InstallImage(img); err != nil {
		t.Fatal(err)
	}
	if err := stores[1].AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	for i, s := range stores {
		for c := range views[i] {
			v, err := s.CreateContainer(fmt.Sprint("c", c), "app:v1")
			if err != nil {
				t.Fatal(err)
			}
			views[i][c] = v
		}
	}
	return stores, views
}

// sameMounts compares what is left of the two mounts: what was moved, and
// the two index trees, node by node, link counts included.
func sameMounts(t *testing.T, seed int64, stores [2]*Store) {
	t.Helper()
	a, b := stores[0].Stats(), stores[1].Stats()
	if a.RemoteObjects != b.RemoteObjects || a.RemoteBytes != b.RemoteBytes {
		t.Errorf("seed %d: the lazy mount moved %d objects / %d bytes, the eager one %d / %d",
			seed, a.RemoteObjects, a.RemoteBytes, b.RemoteObjects, b.RemoteBytes)
	}
	if got, want := walkOf(stores[0].indexes["app:v1"].Tree), walkOf(stores[1].indexes["app:v1"].Tree); got != want {
		t.Errorf("seed %d: the lazy mount's tree is\n%s\nthe eager mount's\n%s", seed, got, want)
	}
}

func walkOf(f *vfs.FS) string {
	var sb strings.Builder
	_ = f.Walk(func(p string, n *vfs.Node) error {
		fmt.Fprintf(&sb, "%s %q %v %v %q", p, n.Name(), n.Type(), n.Mode(), n.Target())
		if n.Type() == vfs.TypeRegular {
			fmt.Fprintf(&sb, " %x nlink=%d", n.Content().Data(), n.Content().Nlink())
		}
		sb.WriteByte('\n')
		return nil
	})
	return sb.String()
}

// Two containers of one image cannot tell the mount that fills itself in
// from the blob from the one built whole by ToTree: a random interleaving
// of their calls gets the same answers and errors from both, moves the
// same objects call by call, and leaves the same tree and link counts.
func TestLazyMountMatchesEagerMount(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		ix, img, reg, paths := lazyFixture(t, seed)
		stores, views := mountBoth(t, ix, img, reg)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 250; step++ {
			c := rng.Intn(2)
			op := randomOp(rng, paths, false)
			lazy := op(stores[0], fmt.Sprint("c", c), views[0][c])
			eager := op(stores[1], fmt.Sprint("c", c), views[1][c])
			if lazy != eager {
				t.Fatalf("seed %d, step %d, container %d:\nlazy  %.300s\neager %.300s", seed, step, c, lazy, eager)
			}
			a, b := stores[0].Stats(), stores[1].Stats()
			a.StallTime, b.StallTime = 0, 0 // by the clock
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d, step %d: after %.80s the lazy mount counts %+v, the eager one %+v", seed, step, lazy, a, b)
			}
		}
		sameMounts(t, seed, stores)
	}
}

// The same with the two containers running at once, which is how the
// shared tree is filled in under readers: each container's own answers —
// those that do not depend on what the other has read — are the eager
// mount's, and so are the objects moved and the tree in the end.
func TestLazyMountUnderConcurrentContainers(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ix, img, reg, paths := lazyFixture(t, seed)
		stores, views := mountBoth(t, ix, img, reg)
		var answers [2][2][]string
		var wg sync.WaitGroup
		for i := range stores {
			for c := range views[i] {
				wg.Add(1)
				go func(i, c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*10 + int64(c)))
					for step := 0; step < 150; step++ {
						answers[i][c] = append(answers[i][c], randomOp(rng, paths, true)(stores[i], fmt.Sprint("c", c), views[i][c]))
					}
				}(i, c)
			}
		}
		wg.Wait()
		for c := range answers[0] {
			for step := range answers[0][c] {
				if lazy, eager := answers[0][c][step], answers[1][c][step]; lazy != eager {
					t.Fatalf("seed %d, container %d, step %d:\nlazy  %.300s\neager %.300s", seed, c, step, lazy, eager)
				}
			}
		}
		sameMounts(t, seed, stores)
	}
}
