package archlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// Rule: every exported function, method, type, var and const of the
// module is used by a non-test file outside its own declaration.
// cmd/ and examples/ count as callers; the benchmark's directory
// neither counts nor is checked. A method is exempt when its receiver
// type implements an interface, declared anywhere the module can see,
// that has the method: fmt reaching a String, io.Copy reaching a Read.
// Every other name without a caller needs an allowlist line, and a line
// fails when its name is gone or has gained a caller.

// exportedAllowlist holds the survivors, one "file:Name (reason) why"
// per line, where reason is one of
//
//	(a) declared in the gear.go facade;
//	(b) read only by the benchmark;
//	(c) a test meter read across packages;
//	(d) a reason written out for that one name.
const exportedAllowlist = "scripts/exported_allowlist.txt"

// benchDir is the benchmark's directory: not a caller, not checked.
const benchDir = "loadbench"

func TestExportedNamesHaveCallers(t *testing.T) {
	for _, msg := range deadNames(repoModule(t), benchDir, readAllowlist(t, repoRoot(t), exportedAllowlist)) {
		t.Error(msg)
	}
}

// The fixtures: an uncalled function, a method only a test calls and a
// function that only calls itself trip the rule, as does a stale line;
// a Read reached through io.Copy, a String reached through fmt, and a
// name only the benchmark reads, under its (b) line, do not.
func TestDeadNamesFixtures(t *testing.T) {
	for name, want := range map[string][]string{
		"deadnames_trip.txtar": {
			"a/a.go:Counter.Reset: exported, but",
			"a/a.go:Recursive: exported, but",
			"a/a.go:Uncalled: exported, but",
			"allow.txt:1: a/a.go:Gone: no such exported name",
		},
		"deadnames_pass.txtar": nil,
	} {
		dir := fixture(t, name)
		expect(t, name, deadNames(load(t, dir), "bench", readAllowlist(t, dir, "allow.txt")), want)
	}
}

// decl is one exported name and the spans of its own declaration, in
// which a use does not count.
type decl struct {
	key   string // "file:Name" or "file:Recv.Name"
	obj   types.Object
	spans [][2]token.Pos
	used  bool
	bench bool // used by the benchmark
}

func (d *decl) inside(pos token.Pos) bool {
	for _, s := range d.spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic function or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvBase is the name of a method receiver's base type.
func recvBase(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// declsOf collects the exported names declared in p's files. A type's
// own method receivers are part of its declaration.
func declsOf(m *module, p *pkg, decls map[types.Object]*decl) {
	span := func(obj types.Object, key string, from, to token.Pos) {
		d := decls[obj]
		if d == nil {
			d = &decl{key: m.rel(obj.Pos()) + ":" + key, obj: obj}
			decls[obj] = d
		}
		d.spans = append(d.spans, [2]token.Pos{from, to})
	}
	def := func(id *ast.Ident, key string, from, to token.Pos) {
		if id.IsExported() {
			span(p.info.Defs[id], key, from, to)
		}
	}
	for _, f := range p.files {
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if dl.Recv == nil {
					def(dl.Name, dl.Name.Name, dl.Pos(), dl.End())
					continue
				}
				base := recvBase(dl.Recv.List[0].Type)
				def(dl.Name, base.Name+"."+dl.Name.Name, dl.Pos(), dl.End())
				if base.IsExported() {
					span(p.info.Uses[base], base.Name, dl.Recv.Pos(), dl.Recv.End())
				}
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						def(s.Name, s.Name.Name, s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, id := range s.Names {
							def(id, id.Name, s.Pos(), s.End())
						}
					}
				}
			}
		}
	}
}

// interfaces returns every interface the module can see: the named
// ones of its packages and of every package they import, the interface
// literals its code spells (constraints included), error, and the
// methods errors.Is, As and Unwrap look for, which the errors package
// spells inside function bodies, where export data does not reach.
func interfaces(m *module) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				out = append(out, it)
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	method := func(name string, params, results []types.Type) *types.Interface {
		vars := func(ts []types.Type) *types.Tuple {
			vs := make([]*types.Var, len(ts))
			for i, t := range ts {
				vs[i] = types.NewParam(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vs...)
		}
		sig := types.NewSignatureType(nil, nil, nil, vars(params), vars(results), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	boolType, anyType := types.Typ[types.Bool], types.Universe.Lookup("any").Type()
	return append(out, errType.Underlying().(*types.Interface),
		method("Unwrap", nil, []types.Type{errType}),
		method("Unwrap", nil, []types.Type{types.NewSlice(errType)}),
		method("Is", []types.Type{errType}, []types.Type{boolType}),
		method("As", []types.Type{anyType}, []types.Type{boolType}))
}

// satisfiesInterface reports whether a method's receiver type
// implements an interface that has the method.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// deadNames checks m against its allowlist and returns one message per
// exported name with no caller and no line, and per line that is not
// such a name or does not hold its reason.
func deadNames(m *module, bench string, allow []allowLine) []string {
	decls := map[types.Object]*decl{}
	for _, p := range m.pkgs {
		if !within(p.dir, bench) {
			declsOf(m, p, decls)
		}
	}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			d := decls[origin(obj)]
			if d == nil || d.inside(id.Pos()) {
				continue
			}
			if within(p.dir, bench) {
				d.bench = true
			} else {
				d.used = true
			}
		}
	}
	ifaces := interfaces(m)
	dead := map[string]*decl{}
	all := map[string]*decl{}
	for _, d := range decls {
		all[d.key] = d
		if d.used {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && satisfiesInterface(fn, ifaces) {
			continue
		}
		dead[d.key] = d
	}

	var msgs []string
	listed := map[string]bool{}
	for _, l := range allow {
		where := l.at + ": " + l.key
		listed[l.key] = true
		d := dead[l.key]
		switch {
		case all[l.key] == nil:
			msgs = append(msgs, where+": no such exported name; delete the line")
			continue
		case d == nil:
			msgs = append(msgs, where+": has a caller now; delete the line")
			continue
		}
		reason, why, _ := strings.Cut(l.rest, " ")
		why = strings.TrimSpace(why)
		switch reason {
		case "(a)":
			if !strings.HasPrefix(l.key, "gear.go:") {
				msgs = append(msgs, where+": (a) is for the gear.go facade")
			}
		case "(b)":
			if !d.bench {
				msgs = append(msgs, where+": (b) but the benchmark does not read it")
			}
		case "(c)", "(d)":
			if why == "" {
				msgs = append(msgs, where+": "+reason+" needs its reason written out")
			}
		default:
			msgs = append(msgs, where+": reason must be (a), (b), (c) or (d)")
		}
	}
	for key := range dead {
		if !listed[key] {
			msgs = append(msgs, key+": exported, but no non-test file outside its declaration uses it; delete it, unexport it, or give it an allowlist line")
		}
	}
	sort.Strings(msgs)
	return msgs
}
