// Package callgraph builds per-function effect summaries and a
// cross-package call graph for replaypurity, the inter-procedural analyzer.
//
// Each package's analysis produces a Summary: for every function declared
// in the package, the nondeterministic effects it performs directly and the
// calls it makes (keyed by types.Func.FullName, so names are stable
// across compilation units). The Summary is exported as an analysis fact;
// when a dependent package is analyzed, the summaries of its imports are
// merged back in —
// and re-exported — so every package's fact blob is self-contained for
// its whole transitive dependency cone. That is what lets `go vet
// -vettool` runs, which analyze one compilation unit at a time, compose
// inter-procedural results exactly the way x/tools facts do.
//
// Approximations, chosen conservative for the replay-determinism use
// case:
//
//   - A function literal's body is attributed to the enclosing declared
//     function (the literal may run whenever the encloser does).
//   - A reference to a method or function that is not itself the callee
//     of a call expression (a method value, a function passed as an
//     argument, a `go f` statement) is a potential call edge.
//   - Interface method calls fan out through Binds: every named type in
//     the package is checked against every interface in scope, and the
//     resulting (interface method -> concrete method) edges ride the
//     summary. A type that satisfies an interface it never imports is a
//     documented blind spot, as in any non-whole-program analysis.
//   - A `go` statement carries its own effect; when the statement is
//     suppressed by a directive, the spawned subtree is pruned — the
//     directive audits the detached work.
package callgraph

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"eta2lint/internal/analysis"
)

// Effect kinds recorded in summaries.
const (
	EffTime     = "time"     // time.Now / time.Since
	EffRand     = "rand"     // anything in math/rand or math/rand/v2
	EffMapRange = "maprange" // range over a map outside sortedKeys helpers
	EffGo       = "go"       // goroutine spawn
	EffEnv      = "env"      // os.Getenv / os.LookupEnv / os.Environ
	EffSched    = "sched"    // runtime.GOMAXPROCS / runtime.NumCPU
	EffSelect   = "select"   // select statement
)

// Effect is one nondeterminism source performed directly by a function.
type Effect struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"` // human fragment, e.g. "call to time.Now"
	Pos    string `json:"pos"`    // base-name file:line:col, for cross-package messages
	// TokPos is the precise position when the effect was found in the
	// package under analysis; zero for summaries merged from facts.
	TokPos token.Pos `json:"-"`
}

// Call is one (potential) call edge out of a function.
type Call struct {
	Callee string    `json:"callee"` // types.Func.FullName of the target
	Pos    string    `json:"pos"`
	TokPos token.Pos `json:"-"`
}

// FuncSummary is the per-function analysis fact.
type FuncSummary struct {
	Effects []Effect `json:"effects,omitempty"`
	Calls   []Call   `json:"calls,omitempty"`
}

// Summary is one package's exported fact: the merged summaries of the
// package and its entire transitive dependency cone.
type Summary struct {
	Funcs map[string]*FuncSummary `json:"funcs"`
	// Binds maps an interface method's FullName to the FullNames of the
	// concrete methods that may stand behind it.
	Binds map[string][]string `json:"binds,omitempty"`
}

// Graph is the analysis-time view: the merged summary plus the AST of
// the functions declared locally (for precise positions and directives).
type Graph struct {
	Summary *Summary
	// LocalDecls maps FullName -> declaration for functions defined in
	// the package under analysis (test files excluded).
	LocalDecls map[string]*ast.FuncDecl

	pass *analysis.Pass
}

// Analyze builds the package's call graph, merges the summaries of every
// import (read from analysis facts), and exports the merged summary as this
// package's fact.
func Analyze(pass *analysis.Pass) (*Graph, error) {
	merged := &Summary{
		Funcs: make(map[string]*FuncSummary),
		Binds: make(map[string][]string),
	}
	for _, imp := range pass.Pkg.Imports() {
		blob := pass.ReadFact(imp.Path())
		if blob == nil {
			continue
		}
		var dep Summary
		if err := json.Unmarshal(blob, &dep); err != nil {
			return nil, fmt.Errorf("callgraph: corrupt fact for %s: %w", imp.Path(), err)
		}
		for name, fs := range dep.Funcs {
			merged.Funcs[name] = fs
		}
		for iface, impls := range dep.Binds {
			merged.Binds[iface] = mergeStrings(merged.Binds[iface], impls)
		}
	}

	g := &Graph{Summary: merged, LocalDecls: make(map[string]*ast.FuncDecl), pass: pass}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			name := obj.FullName()
			g.LocalDecls[name] = fd
			if pass.FuncSuppressed(fd) {
				// Audited escape hatch: the whole function is out of scope,
				// including everything it calls.
				merged.Funcs[name] = &FuncSummary{}
				continue
			}
			merged.Funcs[name] = buildSummary(pass, fd)
		}
	}

	bindLocalTypes(pass, merged)
	for iface := range merged.Binds {
		sort.Strings(merged.Binds[iface])
	}

	blob, err := json.Marshal(merged)
	if err != nil {
		return nil, fmt.Errorf("callgraph: encode summary: %w", err)
	}
	pass.ExportFact(blob)
	return g, nil
}

// Func returns the summary for a FullName, or nil if outside the
// analysis universe (standard library, unanalyzed module).
func (g *Graph) Func(name string) *FuncSummary { return g.Summary.Funcs[name] }

// Impls returns the concrete methods bound to an interface method name.
func (g *Graph) Impls(ifaceMethod string) []string { return g.Summary.Binds[ifaceMethod] }

// ---- summary construction ----------------------------------------------

type builder struct {
	pass    *analysis.Pass
	fs      *FuncSummary
	fnName  string              // bare function name, for the sortedKeys exemption
	callees map[*ast.Ident]bool // idents already consumed as direct callees
}

func buildSummary(pass *analysis.Pass, fd *ast.FuncDecl) *FuncSummary {
	b := &builder{
		pass:    pass,
		fs:      &FuncSummary{},
		fnName:  fd.Name.Name,
		callees: make(map[*ast.Ident]bool),
	}
	b.walk(fd.Body)
	return b.fs
}

func (b *builder) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if b.pass.SuppressedAt(n.Pos()) {
				// The directive audits the detached work: prune the spawned
				// subtree, including the call edge into it.
				return false
			}
			b.effect(EffGo, "goroutine spawn (`go` statement)", n.Pos())
		case *ast.SelectStmt:
			if !b.pass.SuppressedAt(n.Pos()) {
				b.effect(EffSelect, "select statement (case order is scheduler-dependent)", n.Pos())
			}
		case *ast.RangeStmt:
			b.rangeStmt(n)
		case *ast.CallExpr:
			b.call(n)
		case *ast.Ident:
			b.reference(n)
		}
		return true
	})
}

func (b *builder) effect(kind, detail string, pos token.Pos) {
	b.fs.Effects = append(b.fs.Effects, Effect{
		Kind:   kind,
		Detail: detail,
		Pos:    shortPos(b.pass.Fset, pos),
		TokPos: pos,
	})
}

func (b *builder) rangeStmt(rs *ast.RangeStmt) {
	t := b.pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	// sorted* helpers (sortedKeys, sortedTaskIDs, ...) exist to turn a
	// map into an ordered slice; the iteration inside them is the
	// sanctioned one.
	if lower := strings.ToLower(b.fnName); strings.HasPrefix(lower, "sorted") {
		return
	}
	if b.pass.SuppressedAt(rs.For) {
		return
	}
	b.effect(EffMapRange, "range over map (nondeterministic iteration order)", rs.For)
}

// call handles a call expression: a known nondeterminism source becomes
// an effect, anything else a call edge.
func (b *builder) call(call *ast.CallExpr) {
	callee := Callee(b.pass.TypesInfo, call)
	if callee == nil {
		return // dynamic call through a function value; the reference edge covers named targets
	}
	if id := calleeIdent(call.Fun); id != nil {
		b.callees[id] = true
	}
	if b.pass.SuppressedAt(call.Pos()) {
		return
	}
	if kind, detail := specialEffect(callee); kind != "" {
		b.effect(kind, detail, call.Pos())
		return
	}
	if callee.Pkg() == nil {
		return // error.Error and friends from the universe scope
	}
	b.edge(callee, call.Pos())
}

// reference records a potential call edge for a function or method used
// as a value (method value, callback argument, goroutine target).
func (b *builder) reference(id *ast.Ident) {
	if b.callees[id] {
		return
	}
	fn, ok := b.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if b.pass.SuppressedAt(id.Pos()) {
		return
	}
	if kind, detail := specialEffect(fn); kind != "" {
		b.effect(kind, detail+" (via function value)", id.Pos())
		return
	}
	b.edge(fn, id.Pos())
}

func (b *builder) edge(callee *types.Func, pos token.Pos) {
	b.fs.Calls = append(b.fs.Calls, Call{
		Callee: callee.FullName(),
		Pos:    shortPos(b.pass.Fset, pos),
		TokPos: pos,
	})
}

// specialEffect classifies calls that ARE the nondeterminism, rather
// than paths to it.
func specialEffect(fn *types.Func) (kind, detail string) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", ""
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			return EffTime, "call to time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		return EffRand, "call to " + pkg.Path() + "." + fn.Name()
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			return EffEnv, "environment read os." + fn.Name()
		}
	case "runtime":
		switch fn.Name() {
		case "GOMAXPROCS", "NumCPU":
			return EffSched, "scheduler query runtime." + fn.Name()
		}
	}
	return "", ""
}

// Callee resolves the static or interface-method target of a call, or
// nil for dynamic calls through function values and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified identifier: pkg.Func.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

// ---- interface binds -----------------------------------------------------

// bindLocalTypes records, for every named non-interface type declared in
// this package, which interface methods its methods may stand behind.
// Interfaces are drawn from this package and its direct imports — the
// packages whose interfaces this package can possibly name.
func bindLocalTypes(pass *analysis.Pass, s *Summary) {
	var ifaces []*types.Named
	collect := func(scope *types.Scope, exportedOnly bool) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || (exportedOnly && !tn.Exported()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, named)
			}
		}
	}
	collect(pass.Pkg.Scope(), false)
	for _, imp := range pass.Pkg.Imports() {
		collect(imp.Scope(), true)
	}

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(named)
		for _, iface := range ifaces {
			it := iface.Underlying().(*types.Interface)
			if !types.Implements(named, it) && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				s.Binds[im.FullName()] = mergeStrings(s.Binds[im.FullName()], []string{fn.FullName()})
			}
		}
	}
}

func mergeStrings(dst []string, src []string) []string {
	have := make(map[string]bool, len(dst))
	for _, s := range dst {
		have[s] = true
	}
	for _, s := range src {
		if !have[s] {
			dst = append(dst, s)
			have[s] = true
		}
	}
	return dst
}

// shortPos renders a position with a base filename — findings that cross
// package boundaries embed it in messages, so it must not depend on the
// checkout path.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}
