package vfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// treeSource serves a built tree as a Source: its directories, numbered
// as they were met, and a count of the entries it was asked to fill in.
type treeSource struct {
	dirs  []*Node
	ids   map[*Node]uint32
	fills atomic.Int64
}

func sourceOf(f *FS) *treeSource {
	s := &treeSource{ids: make(map[*Node]uint32)}
	var number func(n *Node)
	number = func(n *Node) {
		s.ids[n] = uint32(len(s.dirs))
		s.dirs = append(s.dirs, n)
		for _, name := range n.ChildNames() {
			if c := n.Child(name); c.IsDir() {
				number(c)
			}
		}
	}
	number(f.Root())
	return s
}

func (s *treeSource) Names(dir uint32) []string { return s.dirs[dir].ChildNames() }

func (s *treeSource) Fill(dir uint32, name string, into *Node) {
	c := s.dirs[dir].Child(name)
	if c == nil {
		return
	}
	s.fills.Add(1)
	switch c.Type() {
	case TypeDir:
		into.AddSourceDir(c.Name(), c.Mode(), s, s.ids[c])
	case TypeRegular:
		into.AddFile(c.Name(), c.Content().Data(), c.Mode())
	case TypeSymlink:
		into.AddSymlink(c.Name(), c.Target())
	}
}

// describe is everything a tree can tell about itself.
func describe(f *FS) string {
	var sb strings.Builder
	_ = f.Walk(func(p string, n *Node) error {
		fmt.Fprintf(&sb, "%s %q %v %v %q", p, n.Name(), n.Type(), n.Mode(), n.Target())
		if n.Type() == TypeRegular {
			fmt.Fprintf(&sb, " %q nlink=%d", n.Content().Data(), n.Content().Nlink())
		}
		sb.WriteByte('\n')
		return nil
	})
	return sb.String()
}

// allPaths lists every path of the tree, a few that are not there, and
// the root.
func allPaths(f *FS) []string {
	paths := []string{"/", "/missing", "/missing/below"}
	_ = f.Walk(func(p string, n *Node) error {
		paths = append(paths, p, p+"/nothing")
		return nil
	})
	return paths
}

// A tree that fills itself in cannot be told from the tree it is filled
// in from: any sequence of calls answers the same on both, and leaves the
// same tree, clones included.
func TestSourcedTreeMatchesBuiltTree(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		model := New()
		randomTree(model, seed, 60)
		built := model.Clone()
		lazy := NewFrom(sourceOf(model), 0)
		paths := allPaths(model)
		rng := rand.New(rand.NewSource(seed))
		shared := NewContent([]byte("linked in"))

		same := func(what string, a, b any) {
			t.Helper()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: %s: the built tree says %v, the sourced one %v", seed, what, a, b)
			}
		}
		errText := func(err error) string { return fmt.Sprint(err) }
		node := func(n *Node) string {
			if n == nil {
				return "none"
			}
			s := fmt.Sprintf("%q %v %v %q", n.Name(), n.Type(), n.Mode(), n.Target())
			if n.Type() == TypeRegular {
				s += fmt.Sprintf(" %q nlink=%d", n.Content().Data(), n.Content().Nlink())
			}
			return s
		}
		for step := 0; step < 150; step++ {
			p := paths[rng.Intn(len(paths))]
			q := paths[rng.Intn(len(paths))]
			// Reads are the common case, as in a mounted index.
			switch op := rng.Intn(20); op {
			case 0, 1, 2:
				a, aerr := built.Stat(p)
				b, berr := lazy.Stat(p)
				same("Stat "+p, []string{node(a), errText(aerr)}, []string{node(b), errText(berr)})
			case 3, 4:
				same("Lookup "+p, node(built.Lookup(p)), node(lazy.Lookup(p)))
				same("Exists "+p, built.Exists(p), lazy.Exists(p))
			case 5, 6, 7:
				a, aerr := built.ReadDirNames(p)
				b, berr := lazy.ReadDirNames(p)
				same("ReadDirNames "+p, []any{a, errText(aerr)}, []any{b, errText(berr)})
			case 8, 9:
				a, aerr := built.ReadFile(p)
				b, berr := lazy.ReadFile(p)
				same("ReadFile "+p, []any{a, errText(aerr)}, []any{b, errText(berr)})
			case 10, 11, 12:
				same("Relink "+p, built.Relink(p, shared), lazy.Relink(p, shared))
			case 13:
				same("WriteFile "+p, errText(built.WriteFile(p, []byte("new"), 0o600)), errText(lazy.WriteFile(p, []byte("new"), 0o600)))
			case 14:
				same("Mkdir "+p, errText(built.Mkdir(p, 0o700)), errText(lazy.Mkdir(p, 0o700)))
				same("MkdirAll "+q, errText(built.MkdirAll(q+"/x/y", 0o700)), errText(lazy.MkdirAll(q+"/x/y", 0o700)))
			case 15:
				same("Remove "+p, errText(built.Remove(p)), errText(lazy.Remove(p)))
			case 16:
				if p != "/" || rng.Intn(8) == 0 {
					same("RemoveAll "+p, errText(built.RemoveAll(p)), errText(lazy.RemoveAll(p)))
				}
			case 17:
				same("Symlink "+p, errText(built.Symlink("t", p)), errText(lazy.Symlink("t", p)))
				same("PutContent "+q, errText(built.PutContent(q, shared, 0o640)), errText(lazy.PutContent(q, shared, 0o640)))
			case 18:
				same("Link "+p+" "+q, errText(built.Link(p, q)), errText(lazy.Link(p, q)))
			case 19:
				// A clone is filled in, as far as its original was, and
				// fills in the rest for itself.
				same("Clone", describe(built.Clone()), describe(lazy.Clone()))
			}
		}
		// Every link into shared is counted once in each tree.
		if shared.Nlink()%2 != 0 {
			t.Errorf("seed %d: %d links to the content both trees link, want as many from each", seed, shared.Nlink())
		}
		same("Stats", built.Clone().Stats(), lazy.Clone().Stats())
		same("the tree", describe(built), describe(lazy))
	}
}

// A path builds the nodes along it and no others, a listing builds none,
// and a miss builds none; Walk builds the rest, once.
func TestSourcedTreeBuildsWhatIsTouched(t *testing.T) {
	model := New()
	for d := 0; d < 10; d++ {
		dir := fmt.Sprintf("/d%d/sub", d)
		if err := model.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := model.WriteFile(fmt.Sprintf("%s/f%02d", dir, i), []byte{byte(i)}, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	src := sourceOf(model)
	lazy := NewFrom(src, 0)
	step := func(what string, want int64, fn func()) {
		t.Helper()
		before := src.fills.Load()
		fn()
		if got := src.fills.Load() - before; got != want {
			t.Errorf("%s filled in %d entries, want %d", what, got, want)
		}
	}
	step("ReadDirNames of the root", 0, func() {
		if names, err := lazy.ReadDirNames("/"); err != nil || len(names) != 10 {
			t.Errorf("ReadDirNames(/) = %v, %v", names, err)
		}
	})
	step("the first path", 3, func() { lazy.Lookup("/d3/sub/f07") })
	step("the same path again", 0, func() { lazy.Lookup("/d3/sub/f07") })
	step("its neighbour", 1, func() { lazy.Lookup("/d3/sub/f08") })
	step("a listing beside them", 0, func() {
		if names, err := lazy.ReadDirNames("/d3/sub"); err != nil || len(names) != 20 {
			t.Errorf("ReadDirNames(/d3/sub) = %v, %v", names, err)
		}
	})
	step("misses", 0, func() {
		if lazy.Exists("/d3/sub/none") || lazy.Exists("/none/at/all") || lazy.Exists("/d3/sub/f07/below") {
			t.Error("a path that is not there resolves")
		}
	})
	step("a relink of a file not read yet", 3, func() {
		if !lazy.Relink("/d4/sub/f00", NewContent([]byte{0})) {
			t.Error("Relink of an entry still in the source reported false")
		}
	})
	if n := lazy.Root().NumChildren(); n != 2 {
		t.Errorf("the root holds %d nodes after paths through two of its entries, want 2", n)
	}
	all := int64(10*22) - 4 - 3
	step("Walk", all, func() { _ = lazy.Stats() })
	step("a second Walk", 0, func() { _ = lazy.Stats() })
	if got, want := lazy.Stats(), model.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	// RemoveAll("/") lets the source go with the nodes.
	again := NewFrom(src, 0)
	again.Lookup("/d1/sub/f01")
	if err := again.RemoveAll("/"); err != nil {
		t.Fatal(err)
	}
	step("an emptied tree", 0, func() {
		if names, _ := again.ReadDirNames("/"); len(names) != 0 || again.Exists("/d1") || again.Stats() != (Stats{}) {
			t.Errorf("after RemoveAll(/): %v, /d1 there = %v", names, again.Exists("/d1"))
		}
	})
}

// Readers that come to one path at once get one node, whoever builds it,
// while others list its directory and a writer relinks the files beside
// it, read or not.
func TestSourcedTreeConcurrentReaders(t *testing.T) {
	model := New()
	files := randomTree(model, 7, 200)
	if len(files) < 20 {
		t.Fatalf("only %d files", len(files))
	}
	lazy := NewFrom(sourceOf(model), 0)
	real := NewContent([]byte("real"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // every second file is relinked, the others keep their node
		defer wg.Done()
		for i := 1; i < len(files); i += 2 {
			if !lazy.Relink(files[i], real) {
				t.Errorf("Relink %s reported false", files[i])
			}
		}
	}()
	const readers = 8
	met := make([]map[string]*Node, readers)
	for r := range met {
		met[r] = make(map[string]*Node)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for _, i := range rng.Perm(len(files)) {
				p := files[i]
				if rng.Intn(3) == 0 {
					if _, err := lazy.ReadDirNames(p[:strings.LastIndexByte(p, '/')+1]); err != nil {
						t.Errorf("ReadDirNames above %s: %v", p, err)
					}
				}
				n := lazy.Lookup(p)
				if n == nil {
					t.Errorf("%s does not resolve", p)
				} else if i%2 == 0 {
					met[r][p] = n
				} else if data := n.Content().Data(); string(data) != "real" && string(data) != string(model.Lookup(p).Content().Data()) {
					t.Errorf("%s reads %q: neither the file nor what it was relinked to", p, data)
				}
			}
		}(r)
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		if !reflect.DeepEqual(met[r], met[0]) {
			t.Fatalf("reader %d and reader 0 met different nodes for one path", r)
		}
	}
	if want := (len(files)) / 2; real.Nlink() != want {
		t.Errorf("%d links to the relinked content, want %d", real.Nlink(), want)
	}
	want := model.Clone()
	for i := 1; i < len(files); i += 2 {
		want.Relink(files[i], NewContent([]byte("real")))
	}
	if got, want := snapshotOf(lazy), snapshotOf(want); got != want {
		t.Errorf("after the readers the tree is\n%s\nwant\n%s", got, want)
	}
}
