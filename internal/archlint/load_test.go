// Package archlint holds the module's architecture rules. It is made
// only of _test.go files: the rules run in `go test ./...` and add no
// line to the product. Each rule type-checks every non-test package of
// a module from source, in `go list -deps` order, with the standard
// library read from export data, and each has one fixture module that
// must trip it and one that must not (testdata/*.txtar).
package archlint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// module is one type-checked Go module: its non-test packages in
// dependency order.
type module struct {
	root string // absolute directory holding go.mod
	fset *token.FileSet
	pkgs []*pkg
}

// pkg is one type-checked package of a module.
type pkg struct {
	path  string // import path
	dir   string // directory relative to the module root, "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// rel returns a position's file path relative to the module root, in
// slash form.
func (m *module) rel(pos token.Pos) string {
	name := m.fset.Position(pos).Filename
	if r, err := filepath.Rel(m.root, name); err == nil {
		name = r
	}
	return filepath.ToSlash(name)
}

// modImporter answers the module's own packages from the ones already
// checked and every other import from export data.
type modImporter struct {
	mod map[string]*types.Package
	std types.Importer
}

func (im modImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.mod[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// load type-checks every non-test package of the module rooted at root.
func load(t testing.TB, root string) *module {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Module", "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", root, err, stderr.Bytes())
	}
	m := &module{root: root, fset: token.NewFileSet()}
	im := modImporter{mod: map[string]*types.Package{}, std: importer.Default()}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp struct {
			ImportPath string
			Dir        string
			GoFiles    []string
			Module     *struct{ Main bool }
		}
		if err := dec.Decode(&lp); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if lp.Module == nil || !lp.Module.Main {
			continue // the standard library: export data
		}
		p := &pkg{path: lp.ImportPath}
		if p.dir, err = filepath.Rel(root, lp.Dir); err != nil {
			t.Fatal(err)
		}
		p.dir = filepath.ToSlash(p.dir)
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: im}
		if p.types, err = conf.Check(p.path, m.fset, p.files, p.info); err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		im.mod[p.path] = p.types
		m.pkgs = append(m.pkgs, p)
	}
	return m
}

// within reports whether the module-relative directory dir is root or
// below it.
func within(dir, root string) bool { return dir == root || strings.HasPrefix(dir, root+"/") }

var repo struct {
	once sync.Once
	m    *module
}

// repoModule is this repository's module, loaded once for every rule.
func repoModule(t testing.TB) *module {
	t.Helper()
	repo.once.Do(func() { repo.m = load(t, repoRoot(t)) })
	if repo.m == nil {
		t.Fatal("the module did not load")
	}
	return repo.m
}

// repoRoot is the directory of the module this package belongs to.
func repoRoot(t testing.TB) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("no go.mod at %s: %v", root, err)
	}
	return root
}

// fixture writes a txtar-style archive from testdata ("-- name --"
// lines open each file) into a fresh directory and returns it.
func fixture(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var f *os.File
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if n, ok := strings.CutPrefix(line, "-- "); ok && strings.HasSuffix(n, " --") {
			if f != nil {
				f.Close()
			}
			path := filepath.Join(dir, filepath.FromSlash(strings.TrimSuffix(n, " --")))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if f, err = os.Create(path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if f != nil {
			fmt.Fprintln(f, line)
		}
	}
	if f != nil {
		f.Close()
	}
	return dir
}

// expect checks a rule's sorted messages on a fixture against the
// prefixes they must start with, one message each.
func expect(t *testing.T, fixture string, msgs, want []string) {
	t.Helper()
	ok := len(msgs) == len(want)
	for i := 0; ok && i < len(msgs); i++ {
		ok = strings.HasPrefix(msgs[i], want[i])
	}
	if !ok {
		t.Errorf("%s: the rule says\n\t%s\nwant messages starting\n\t%s", fixture, strings.Join(msgs, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// allowLine is one line of an allowlist: where it is, its key and what
// follows the key.
type allowLine struct {
	at, key, rest string
}

// readAllowlist reads the "key rest…" lines of the file rel below root,
// skipping blanks and # comments.
func readAllowlist(t testing.TB, root, rel string) []allowLine {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		t.Fatal(err)
	}
	var lines []allowLine
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		lines = append(lines, allowLine{at: fmt.Sprintf("%s:%d", rel, i+1), key: key, rest: strings.TrimSpace(rest)})
	}
	return lines
}
