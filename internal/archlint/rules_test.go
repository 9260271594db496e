package archlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The invariant rules: one wire layer carries every HTTP protocol, one
// transport every client, one contract every store, one converter names
// every Gear image, one constructor every remote client and every
// fleet, netsim every virtual second, and tarstream every gzip stream
// (DESIGN.md §5, "Architecture rules"). Each rule reads a module's
// non-test files, except the directories and files it exempts, and
// names what it forbids by what the type checker resolves: the object
// an identifier or selector denotes (by module.key), an import path,
// the interface a type assertion names, the field an assignment writes,
// the type of the value a Write is called on. Comments are not read.

// rule is one invariant.
type rule struct {
	name   string   // in messages and fixture names: testdata/<name>_{trip,pass}.txtar
	exempt []string // module-relative directories and files it leaves alone
	fix    string   // what to do instead, closing every message
	check  func(*src)
}

var rules = []rule{
	{name: "http", exempt: []string{"internal/wire", "internal/tarstream", "loadbench"}, check: handRolledHTTP,
		fix: "use wire.Client.Do / wire.NewHandler / wire.Serve instead"},
	{name: "reply", exempt: []string{"internal/wire", "loadbench"}, check: unsizedReply,
		fix: "build the body and answer through wire.Respond / RespondObject / RespondFrames"},
	{name: "client", exempt: []string{"internal/wire", "loadbench"}, check: defaultClient,
		fix: "pass wire.NewClient a nil client, or one that names its own Transport"},
	{name: "transport", exempt: []string{"loadbench"}, check: secondTransport,
		fix: "let wire.NewClient carry the client on internal/wire's transport"},
	{name: "ladder", exempt: []string{"loadbench"}, check: verbLadder,
		fix: "gearregistry.Store and viewer.Resolver carry every verb; call it"},
	{name: "rename", exempt: []string{"internal/gear/convert"}, check: renamedResult,
		fix: "set convert.Options.IndexPrefix and publish the Result as Convert returned it"},
	{name: "wayin", exempt: []string{"loadbench"}, check: secondWayIn,
		fix: "build the client with NewClient(baseURL, hc) and set hc.Timeout; read /peer/metrics"},
	{name: "fleet", exempt: []string{"internal/fleet", "loadbench", "gear.go"}, check: handBuiltFleet,
		fix: "build it with fleet.New"},
	{name: "clock", exempt: []string{"internal/wire", "internal/gear/store/fetch.go", "internal/gear/store/window.go", "cmd", "loadbench"}, check: hostClock,
		fix: "virtual-time code prices time through netsim"},
	{name: "codec", check: secondCodec,
		fix: "write with tarstream.Gzip / GzipFrom, read with tarstream.Gunzip and its kin"},
}

func TestArchitectureRules(t *testing.T) {
	m := repoModule(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, msg := range lint(m, r) {
				t.Error(msg)
			}
		})
	}
}

// Each trip fixture plants every form its rule names once, outside the
// exemptions; each pass fixture holds the same forms in a _test.go file
// and in every exempt directory, and the neighbours the rule must not
// mistake for them.
func TestArchitectureRuleFixtures(t *testing.T) {
	trips := map[string][]string{
		"http": {
			"a/a.go:11: http: io.ReadAll;",
			"a/a.go:13: http: io/ioutil.ReadAll;",
			"a/a.go:14: http: net/http.StatusMethodNotAllowed;",
			"a/a.go:16: http: net/http.Error;",
			"a/a.go:17: http: net/http.NotFound;",
			"a/a.go:21: http: net/http.Serve;",
			"a/a.go:22: http: net/http.ServeTLS;",
			"a/a.go:23: http: net/http.ListenAndServe;",
			"a/a.go:24: http: net/http.ListenAndServeTLS;",
			"a/a.go:25: http: io.ReadAll;",
		},
		"reply": {
			"a/a.go:15: reply: Write on an http.ResponseWriter;",
			"a/a.go:16: reply: an http.ResponseWriter used as io.Writer;",
			"a/a.go:18: reply: Write on an http.ResponseWriter;",
			"a/a.go:20: reply: an http.ResponseWriter used as io.Writer;",
			"a/a.go:21: reply: an http.ResponseWriter used as io.Writer;",
			"a/a.go:22: reply: an http.ResponseWriter used as io.Writer;",
			"a/a.go:23: reply: an http.ResponseWriter used as io.Writer;",
			"a/a.go:24: reply: an http.ResponseWriter used as io.Writer;",
			"a/a.go:25: reply: an http.ResponseWriter used as io.Writer;",
			"a/a.go:27: reply: an http.ResponseWriter used as io.StringWriter;",
			"a/a.go:30: reply: an http.ResponseWriter used as io.Writer;",
			"a/a.go:32: reply: Write on an http.ResponseWriter;",
			"a/a.go:35: reply: Write on an http.ResponseWriter;",
		},
		"client": {
			"a/a.go:6: client: net/http.DefaultClient;",
			"a/a.go:7: client: net/http.DefaultTransport;",
			"a/a.go:8: client: net/http.Get;",
			"a/a.go:9: client: net/http.Head;",
			"a/a.go:10: client: net/http.Post;",
			"a/a.go:11: client: net/http.PostForm;",
		},
		"transport": {
			"a/a.go:6: transport: an http.Transport literal;",
			"a/a.go:7: transport: net/http.Transport.Clone;",
			"a/a.go:8: transport: new(http.Transport);",
			"a/a.go:9: transport: a variable or field of type http.Transport;",
			"a/a.go:13: transport: a variable or field of type http.Transport;",
			"internal/wire/wire.go:5: transport: an http.Transport literal;",
		},
		"ladder": {
			"a/a.go:11: ladder: a type assertion to internal/gearregistry.RangeDownloader;",
			"a/a.go:14: ladder: a type assertion to internal/gear/viewer.Resolver;",
			"a/a.go:16: ladder: a type assertion to internal/gearregistry.BatchQuerier;",
			"a/a.go:20: ladder: the name ErrRangeUnsupported;",
			"a/a.go:22: ladder: the name ErrNotChunked;",
			"a/a.go:24: ladder: the name ErrNotChunked;",
			"a/a.go:30: ladder: a type assertion to internal/gearregistry.Client;",
			"a/a.go:31: ladder: a type assertion to a.RangeResolver;",
			"internal/gearregistry/gearregistry.go:16: ladder: a type assertion to internal/gearregistry.RangeDownloader;",
		},
		"rename": {
			"a/a.go:13: rename: lastIndexImage replaces an index image;",
			"a/a.go:16: rename: res.Index.Name renames the index it holds;",
			"a/a.go:17: rename: res.IndexImage replaces an index image;",
			"a/a.go:18: rename: res.Files[\"x\"] written through a convert.Result;",
			"a/a.go:19: rename: (*res).Index.Size written through a convert.Result;",
			"a/a.go:21: rename: v.Index.Name renames the index it holds;",
			"a/a.go:24: rename: held.Index.Name renames the index it holds;",
			"a/a.go:24: rename: held.Index.Tag renames the index it holds;",
			"a/a.go:26: rename: other.Index.Name renames the index it holds;",
			"a/a.go:27: rename: other.IndexImage replaces an index image;",
			"a/a.go:28: rename: lastIndexImage replaces an index image;",
		},
		"wayin": {
			"a/a.go:3: wayin: the string \"example.com/trip/internal/clientopt\";",
			"a/a.go:6: wayin: the name RetryStore;",
			"a/a.go:9: wayin: the name NewClientWithOptions;",
			"a/a.go:9: wayin: the name clientopt;",
			"a/a.go:9: wayin: the name RetryStore;",
			"a/a.go:9: wayin: the name RetryStore;",
			"a/a.go:11: wayin: the string \"/peer/stats\";",
			"a/a.go:13: wayin: the string \"RetryStore\";",
			"internal/clientopt/clientopt.go:1: wayin: the name clientopt;",
		},
		"fleet": {
			"a/a.go:10: fleet: internal/shardreg.New;",
			"a/a.go:11: fleet: internal/netsim.NewTopology;",
			"a/a.go:12: fleet: internal/peer.NewTracker;",
			"a/a.go:13: fleet: internal/shardreg.New;",
			"internal/shardreg/shardreg.go:9: fleet: internal/shardreg.New;",
		},
		"clock": {
			"a/a.go:6: clock: time.Now;",
			"a/a.go:7: clock: time.Since;",
			"a/a.go:8: clock: time.Until;",
			"a/a.go:9: clock: time.Sleep;",
			"a/a.go:10: clock: time.After;",
			"a/a.go:11: clock: time.AfterFunc;",
			"a/a.go:12: clock: time.Tick;",
			"a/a.go:13: clock: time.NewTimer;",
			"a/a.go:14: clock: time.NewTicker;",
			"a/a.go:15: clock: time.Now;",
			"internal/gear/store/store.go:6: clock: time.Now;",
		},
		"codec": {
			"a/a.go:4: codec: an import of compress/flate;",
			"a/a.go:5: codec: an import of compress/gzip;",
			"a/a.go:6: codec: an import of compress/zlib;",
			"loadbench/main.go:3: codec: an import of compress/gzip;",
		},
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			want, ok := trips[r.name]
			if !ok {
				t.Fatalf("no trip messages for rule %s", r.name)
			}
			for _, name := range []string{r.name + "_trip.txtar", r.name + "_pass.txtar"} {
				expect(t, name, lint(load(t, fixture(t, name)), r), want)
				want = nil
			}
		})
	}
}

// src is one non-test file under a rule.
type src struct {
	m    *module
	p    *pkg
	f    *ast.File
	r    *rule
	msgs *[]finding
}

type finding struct {
	at  token.Position
	msg string
}

// report records what the file does at pos that the rule forbids.
func (s *src) report(pos token.Pos, what string) {
	at := s.m.fset.Position(pos)
	*s.msgs = append(*s.msgs, finding{at, fmt.Sprintf("%s:%d: %s: %s; %s", s.m.rel(pos), at.Line, s.r.name, what, s.r.fix)})
}

func (s *src) typeOf(e ast.Expr) types.Type { return s.p.info.TypeOf(e) }

// use is the key of the object id denotes, or "".
func (s *src) use(id *ast.Ident) string { return s.m.key(s.p.info.Uses[id]) }

// lint runs r over every non-test file of m it does not exempt and
// returns its messages in file and line order.
func lint(m *module, r rule) []string {
	var found []finding
	for _, p := range m.pkgs {
		for _, f := range p.files {
			name := m.rel(f.Pos())
			if slices.ContainsFunc(r.exempt, func(e string) bool { return within(name, e) }) {
				continue
			}
			r.check(&src{m: m, p: p, f: f, r: &r, msgs: &found})
		}
	}
	slices.SortStableFunc(found, func(a, b finding) int {
		if c := strings.Compare(a.at.Filename, b.at.Filename); c != 0 {
			return c
		}
		return a.at.Offset - b.at.Offset
	})
	msgs := make([]string, len(found))
	for i, f := range found {
		msgs[i] = f.msg
	}
	return msgs
}

// usesOf returns a check that reports every use of the objects keyed,
// calls and method values alike.
func usesOf(keys ...string) func(*src) {
	return func(s *src) {
		ast.Inspect(s.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(keys, s.use(id)) {
				s.report(id.Pos(), s.use(id))
			}
			return true
		})
	}
}

// Rule http: a body read whole, a server started bare, or a status
// answered by hand outside internal/wire is a hand-rolled protocol
// growing back: the wire client bounds and drains replies, its handler
// owns 404, 405 and the request-body bound, and wire.Serve owns timeouts
// and shutdown. internal/tarstream (gunzip, not HTTP) is exempt. An
// http.Server built by hand and its Serve method are not in the rule:
// examples/lazy_deploy serves two loopback registries it must stop
// itself, and wire.Serve returns only on SIGINT or SIGTERM.
var handRolledHTTP = usesOf("io.ReadAll", "io/ioutil.ReadAll", "net/http.Serve", "net/http.ServeTLS",
	"net/http.ListenAndServe", "net/http.ListenAndServeTLS", "net/http.StatusMethodNotAllowed",
	"net/http.Error", "net/http.NotFound")

// Rule reply: wire.Respond is the one body writer, which is what makes
// every reply declare its length; a body written to the ResponseWriter
// itself goes out unsized, and chunked once it outgrows net/http's
// 2 KiB buffer. The rule follows the value's type, whatever its name
// and wherever it is (closures included): a Write on an
// http.ResponseWriter, promoted through an embedding too, and the
// ResponseWriter handed, as another interface that writes (io.Writer,
// io.StringWriter, io.ReaderFrom), to anything: fmt.Fprint*, io.Copy,
// a variable, field or result, a type assertion.
func unsizedReply(s *src) {
	const rw = "net/http.ResponseWriter"
	ast.Inspect(s.f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && s.use(id) == rw+".Write" {
			s.report(id.Pos(), "Write on an http.ResponseWriter")
		}
		return true
	})
	conversions(s, func(val ast.Expr, to types.Type) {
		if s.m.typeKey(s.typeOf(val)) != rw || s.m.typeKey(to) == rw {
			return
		}
		if it, ok := to.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				if name := it.Method(i).Name(); name == "Write" || name == "WriteString" || name == "ReadFrom" {
					s.report(val.Pos(), "an http.ResponseWriter used as "+types.TypeString(to, (*types.Package).Name))
					return
				}
			}
		}
	})
}

// conversions calls fn for each place the file hands a value to a
// static type of another's choosing: a call's argument and its
// parameter, a conversion's operand and its type, a type assertion's
// operand and its type, an assignment's or a declaration's value and
// its variable, a return value and its result, a composite literal's
// element and its field, element or key type.
func conversions(s *src, fn func(val ast.Expr, to types.Type)) {
	var stack []ast.Node
	ast.Inspect(s.f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			tv := s.p.info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					fn(n.Args[0], tv.Type)
				}
				break
			}
			sig, ok := tv.Type.(*types.Signature)
			if !ok || tv.IsBuiltin() {
				break
			}
			params := sig.Params()
			for i, a := range n.Args {
				switch {
				case sig.Variadic() && i >= params.Len()-1:
					last := params.At(params.Len() - 1).Type()
					if sl, ok := last.(*types.Slice); ok && !n.Ellipsis.IsValid() {
						last = sl.Elem()
					}
					fn(a, last)
				case i < params.Len():
					fn(a, params.At(i).Type())
				}
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				fn(n.X, s.typeOf(n.Type))
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, l := range n.Lhs {
					if to := s.typeOf(l); to != nil {
						fn(n.Rhs[i], to)
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					fn(v, s.typeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			for i := len(stack) - 1; i >= 0; i-- {
				var sig *types.Signature
				switch f := stack[i].(type) {
				case *ast.FuncLit:
					sig, _ = s.typeOf(f).(*types.Signature)
				case *ast.FuncDecl:
					sig = s.p.info.Defs[f.Name].Type().(*types.Signature)
				default:
					continue
				}
				if sig != nil && sig.Results().Len() == len(n.Results) {
					for j, v := range n.Results {
						fn(v, sig.Results().At(j).Type())
					}
				}
				break
			}
		case *ast.CompositeLit:
			t := s.typeOf(n)
			if t == nil {
				break
			}
			for i, el := range n.Elts {
				kv, keyed := el.(*ast.KeyValueExpr)
				switch u := t.Underlying().(type) {
				case *types.Struct:
					if !keyed {
						fn(el, u.Field(i).Type())
						continue
					}
					for j := range u.NumFields() {
						if id, ok := kv.Key.(*ast.Ident); ok && u.Field(j).Name() == id.Name {
							fn(kv.Value, u.Field(j).Type())
						}
					}
				case *types.Slice, *types.Array:
					if keyed {
						el = kv.Value
					}
					fn(el, u.(interface{ Elem() types.Type }).Elem())
				case *types.Map:
					if keyed {
						fn(kv.Key, u.Key())
						fn(kv.Value, u.Elem())
					}
				}
			}
		}
		return true
	})
}

// Rule client: internal/wire's codec is what a client without a
// transport runs on: no http.Request, http.Response or header map per
// request, an idle pool the size of a fetch wave, no Accept-Encoding.
// net/http's default client and transport, and the package functions
// that send through them, bypass all three without saying so.
var defaultClient = usesOf("net/http.DefaultClient", "net/http.DefaultTransport",
	"net/http.Get", "net/http.Head", "net/http.Post", "net/http.PostForm")

// Rule transport: internal/wire's transport is the one the product
// builds; a net/http transport built, allocated, declared or cloned
// anywhere outside loadbench/ (internal/wire included) is a second set
// of connection rules.
func secondTransport(s *src) {
	const tr = "net/http.Transport"
	ast.Inspect(s.f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if s.m.typeKey(s.typeOf(n)) == tr {
				s.report(n.Pos(), "an http.Transport literal")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && s.p.info.Uses[id] == types.Universe.Lookup("new") && s.m.typeKey(s.typeOf(n.Args[0])) == tr {
				s.report(n.Pos(), "new(http.Transport)")
			}
		case *ast.Ident:
			if s.use(n) == tr+".Clone" {
				s.report(n.Pos(), tr+".Clone")
			}
			if v, ok := s.p.info.Defs[n].(*types.Var); ok && s.m.typeKey(v.Type()) == tr {
				s.report(n.Pos(), "a variable or field of type http.Transport")
			}
		}
		return true
	})
}

// Rule ladder: gearregistry.Store is the one six-verb contract and
// viewer.Resolver the one two-verb contract above it. A type assertion
// or type-switch case to any named type either package declares (a
// pointer to one is a concrete store, not a verb), or to a
// RangeResolver wherever it is declared, or an error for a verb a store
// or resolver lacks, is the optional-verb ladder growing back.
func verbLadder(s *src) {
	probe := func(e ast.Expr) {
		k := s.m.typeKey(s.typeOf(e))
		if strings.HasPrefix(k, "internal/gearregistry.") || strings.HasPrefix(k, "internal/gear/viewer.") || strings.HasSuffix(k, ".RangeResolver") {
			s.report(e.Pos(), "a type assertion to "+k)
		}
	}
	ast.Inspect(s.f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				probe(n.Type)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					probe(e)
				}
			}
		case *ast.Ident:
			if n.Name == "ErrRangeUnsupported" || n.Name == "ErrNotChunked" {
				s.report(n.Pos(), "the name "+n.Name)
			}
		}
		return true
	})
}

// Rule rename: a Gear image is named once, inside Convert
// (convert.Options.IndexPrefix), and published by Pusher.Push. Code
// that writes to a field of a Result, or to anything reached through
// one (its Index's name, its Files map), writes to a Result the
// converter may hand out again and prices the image twice. So does
// renaming an index through the Index field of whatever holds it (its
// Name whatever the type, its Tag on an index.Index), or replacing an
// index image: a write to anything whose name ends in IndexImage.
func renamedResult(s *src) {
	holder := func(x *ast.SelectorExpr) string {
		if _, ok := s.p.info.Uses[x.Sel].(*types.Var); !ok {
			return ""
		}
		t := s.typeOf(x.X)
		if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
			t = ptr.Elem()
		}
		return s.m.typeKey(t)
	}
	written := func(lhs ast.Expr) {
		var name string
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			name = x.Name
		case *ast.SelectorExpr:
			name = x.Sel.Name
			in, ok := ast.Unparen(x.X).(*ast.SelectorExpr)
			if ok && in.Sel.Name == "Index" && (name == "Name" || name == "Tag" && holder(x) == "internal/gear/index.Index") {
				s.report(lhs.Pos(), types.ExprString(lhs)+" renames the index it holds")
				return
			}
		}
		if strings.HasSuffix(name, "IndexImage") {
			s.report(lhs.Pos(), types.ExprString(lhs)+" replaces an index image")
			return
		}
		for e := lhs; ; {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if holder(x) == "internal/gear/convert.Result" {
					s.report(lhs.Pos(), types.ExprString(lhs)+" written through a convert.Result")
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(s.f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					written(l)
				}
			}
		case *ast.IncDecStmt:
			written(n.X)
		case *ast.ValueSpec:
			if len(n.Values) > 0 {
				for _, id := range n.Names {
					written(id)
				}
			}
		}
		return true
	})
}

// Rule wayin: each remote client has one constructor, NewClient(baseURL,
// hc), and sends each request once; a deadline is hc.Timeout. A name
// (declared or used) or a string literal carrying a retry policy, a
// second constructor or the deleted options package (its import path
// included), or the tracker's second stats path beside /peer/metrics,
// is a second way in growing back. Identifiers and string literals are
// read, comments not.
func secondWayIn(s *src) {
	names := []string{"clientopt", "RetryStore", "WithOptions"}
	ast.Inspect(s.f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if slices.ContainsFunc(names, func(w string) bool { return strings.Contains(n.Name, w) }) {
				s.report(n.Pos(), "the name "+n.Name)
			}
		case *ast.BasicLit:
			v, err := strconv.Unquote(n.Value)
			if err == nil && n.Kind == token.STRING && slices.ContainsFunc(append(names, "/peer/stats"), func(w string) bool { return strings.Contains(v, w) }) {
				s.report(n.Pos(), "the string "+n.Value)
			}
		}
		return true
	})
}

// Rule fleet: a multi-client fleet (its topology, peer tracker and
// shard tier) is built in one place, fleet.New, so every caller prices
// the same link classes and seeds the tier the same way. A use of one
// of their constructors anywhere else, their own packages included, is
// a hand-built fleet growing back. The public facade gear.go is exempt.
var handBuiltFleet = usesOf("internal/shardreg.New", "internal/netsim.NewTopology", "internal/peer.NewTracker")

// Rule clock: the simulator's figures are virtual time: netsim prices
// every transfer, and the store's demand stall is the price its
// transfer hook returns. Any host-clock entry of package time read
// outside the real-HTTP layers (internal/wire, the store's unpriced
// fallback in fetch.go and window.go, cmd/) is a second wall clock, and
// a metric that no longer replays bit for bit from (scenario, seed).
var hostClock = usesOf("time.Now", "time.Since", "time.Until", "time.Sleep", "time.After",
	"time.AfterFunc", "time.Tick", "time.NewTimer", "time.NewTicker")

// Rule codec: internal/tarstream holds the one deflate encoder and the
// one decoder; compress/flate, compress/gzip and compress/zlib stay the
// test oracles they are. An import of one in non-test code, anywhere,
// is a second codec growing back.
func secondCodec(s *src) {
	for _, imp := range s.f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "compress/flate" || path == "compress/gzip" || path == "compress/zlib" {
			s.report(imp.Pos(), "an import of "+path)
		}
	}
}
