// Package metrichygiene enforces the metric taxonomy rules from the
// observability design (PR 4, DESIGN.md §13):
//
//   - registrations (Counter/Gauge/Histogram and their Vec forms on
//     obs.Registry) use a literal name matching ^eta2_[a-z0-9_]+$;
//   - registration happens only in a file named metrics.go, at package
//     scope — so a package's whole metric surface is one var block;
//   - label names are string literals;
//   - label VALUES passed to Vec.With are drawn from provably bounded
//     sets: literals, constants, locals assigned only literals,
//     intra-package functions returning only literals, or parameters
//     whose intra-package call sites all pass bounded values. Anything
//     else (request headers, user input, formatted numbers) is a
//     time-series cardinality explosion.
//
// The obs package itself is exempt: its registry plumbing necessarily
// passes names and labels through variables. Deliberate exceptions
// elsewhere are annotated //eta2:metrichygiene-ok.
package metrichygiene

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"eta2lint/internal/analysis"
)

var nameRE = regexp.MustCompile(`^eta2_[a-z0-9_]+$`)

// registerMethods maps an obs.Registry registration method to the index
// where its variadic label-name arguments begin (-1: no labels).
var registerMethods = map[string]int{
	"Counter":      -1,
	"Gauge":        -1,
	"Histogram":    -1,
	"CounterVec":   2,
	"GaugeVec":     2,
	"HistogramVec": 3,
}

var Analyzer = &analysis.Analyzer{
	Name: "metrichygiene",
	Doc:  "metric registrations: literal eta2_ names in metrics.go at package scope; bounded label values",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/obs") {
		return nil
	}
	c := &checker{pass: pass, paramIndex: buildParamIndex(pass)}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		for _, decl := range f.Decls {
			inFunc := false
			if fn, ok := decl.(*ast.FuncDecl); ok {
				inFunc = true
				if pass.FuncSuppressed(fn) {
					continue
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				c.checkCall(call, base, inFunc)
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass       *analysis.Pass
	paramIndex map[types.Object]paramSite
}

// paramSite locates one function parameter for call-site boundedness.
type paramSite struct {
	fn    types.Object // the *types.Func of the declaring function
	index int
}

func (c *checker) checkCall(call *ast.CallExpr, fileBase string, inFunc bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	recv := c.recvNamed(sel.X)
	if recv == nil || recv.Obj().Pkg() == nil ||
		!strings.HasSuffix(recv.Obj().Pkg().Path(), "internal/obs") {
		return
	}

	if name == "With" {
		switch recv.Obj().Name() {
		case "CounterVec", "GaugeVec", "HistogramVec":
			for _, arg := range call.Args {
				if !c.bounded(arg, 3, make(map[types.Object]bool)) {
					c.pass.Reportf(arg.Pos(), "unbounded label value %s: Vec.With arguments must come from a bounded literal set (see DESIGN.md §13) or be annotated //eta2:metrichygiene-ok", exprString(arg))
				}
			}
		}
		return
	}

	labelStart, isRegister := registerMethods[name]
	if !isRegister || recv.Obj().Name() != "Registry" || len(call.Args) == 0 {
		return
	}

	// Literal eta2_ name.
	if lit := stringLit(call.Args[0]); lit == "" {
		c.pass.Reportf(call.Args[0].Pos(), "metric name must be a string literal, not %s", exprString(call.Args[0]))
	} else if !nameRE.MatchString(lit) {
		c.pass.Reportf(call.Args[0].Pos(), "metric name %q does not match ^eta2_[a-z0-9_]+$", lit)
	}

	// Registration location: metrics.go, package scope.
	if fileBase != "metrics.go" {
		c.pass.Reportf(call.Pos(), "metric registered outside metrics.go: keep each package's metric surface in one file")
	} else if inFunc {
		c.pass.Reportf(call.Pos(), "metric registered inside a function: register at package scope in metrics.go")
	}

	// Literal label names.
	if labelStart >= 0 {
		for _, arg := range call.Args[min(labelStart, len(call.Args)):] {
			if stringLit(arg) == "" {
				c.pass.Reportf(arg.Pos(), "label name must be a string literal, not %s", exprString(arg))
			}
		}
	}
}

// recvNamed resolves the pointer-stripped named type of a receiver expr.
func (c *checker) recvNamed(e ast.Expr) *types.Named {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// stringLit returns the value of a string literal, or "" if e is not one.
func stringLit(e ast.Expr) string {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil || s == "" {
		return ""
	}
	return s
}

// --- label-value boundedness --------------------------------------------

// bounded reports whether e provably takes values from a finite literal
// set. seen breaks recursion through mutually-referencing objects; depth
// bounds the proof search.
func (c *checker) bounded(e ast.Expr, depth int, seen map[types.Object]bool) bool {
	if depth < 0 {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return e.Kind == token.STRING
	case *ast.BinaryExpr:
		// Concatenation of bounded parts is bounded.
		return e.Op == token.ADD &&
			c.bounded(e.X, depth, seen) && c.bounded(e.Y, depth, seen)
	case *ast.SelectorExpr:
		// Cross-package constants (pkg.SomeConst) are finite by definition.
		_, isConst := c.pass.TypesInfo.Uses[e.Sel].(*types.Const)
		return isConst
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		switch obj := obj.(type) {
		case *types.Const:
			return true
		case *types.Var:
			if seen[obj] {
				return true // cycle: no unbounded source found on this path
			}
			seen[obj] = true
			if site, ok := c.paramIndex[obj]; ok {
				return c.paramBounded(site, depth-1, seen)
			}
			return c.localBounded(obj, depth-1, seen)
		}
		return false
	case *ast.CallExpr:
		fn := c.callee(e)
		if fn == nil || seen[fn] {
			return false
		}
		seen[fn] = true
		return c.returnsBounded(fn, depth-1, seen)
	}
	return false
}

// callee resolves a call to an intra-package *types.Func.
func (c *checker) callee(call *ast.CallExpr) types.Object {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != c.pass.Pkg {
		return nil
	}
	return fn
}

// returnsBounded proves every return of fn's first result is bounded.
func (c *checker) returnsBounded(fn types.Object, depth int, seen map[types.Object]bool) bool {
	decl := c.funcDecl(fn)
	if decl == nil || decl.Body == nil {
		return false
	}
	ok := true
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) == 0 {
			return true
		}
		found = true
		if !c.bounded(ret.Results[0], depth, seen) {
			ok = false
		}
		return ok
	})
	return ok && found
}

// paramBounded proves every intra-package call site passes a bounded
// argument for the parameter.
func (c *checker) paramBounded(site paramSite, depth int, seen map[types.Object]bool) bool {
	found := false
	ok := true
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall || c.callee(call) != site.fn {
				return true
			}
			if site.index >= len(call.Args) {
				ok = false
				return false
			}
			found = true
			if !c.bounded(call.Args[site.index], depth, seen) {
				ok = false
			}
			return ok
		})
		if !ok {
			break
		}
	}
	return ok && found
}

// localBounded proves a function-local variable is only ever assigned
// bounded values.
func (c *checker) localBounded(obj *types.Var, depth int, seen map[types.Object]bool) bool {
	if obj.Parent() == nil || obj.Pkg() != c.pass.Pkg {
		return false
	}
	// Package-scope vars are mutable from anywhere; require const instead.
	if obj.Parent() == c.pass.Pkg.Scope() {
		return false
	}
	found := false
	ok := true
	ident := func(e ast.Expr) types.Object {
		id, isIdent := ast.Unparen(e).(*ast.Ident)
		if !isIdent {
			return nil
		}
		if o := c.pass.TypesInfo.Defs[id]; o != nil {
			return o
		}
		return c.pass.TypesInfo.Uses[id]
	}
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					if ident(lhs) != obj {
						continue
					}
					found = true
					if len(s.Rhs) != len(s.Lhs) || !c.bounded(s.Rhs[i], depth, seen) {
						ok = false
					}
				}
			case *ast.ValueSpec:
				for i, nm := range s.Names {
					if ident(nm) != obj {
						continue
					}
					found = true
					if i >= len(s.Values) || !c.bounded(s.Values[i], depth, seen) {
						ok = false
					}
				}
			case *ast.RangeStmt:
				if ident(s.Key) == obj {
					found = true
					if !c.rangeKeysBounded(s.X, depth, seen) {
						ok = false
					}
				}
				if ident(s.Value) == obj {
					found, ok = true, false
				}
			case *ast.UnaryExpr:
				if s.Op == token.AND && ident(s.X) == obj {
					ok = false // address taken: writes untrackable
				}
			}
			return ok
		})
		if !ok {
			break
		}
	}
	return ok && found
}

// rangeKeysBounded proves that ranging over e yields keys from a bounded
// set: e is a map composite literal with bounded keys, or a local map
// variable only ever assigned such literals and never grown or aliased.
func (c *checker) rangeKeysBounded(e ast.Expr, depth int, seen map[types.Object]bool) bool {
	if depth < 0 {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return c.mapKeysBounded(e, depth, seen)
	case *ast.Ident:
		obj, _ := c.pass.TypesInfo.Uses[e].(*types.Var)
		if obj == nil || seen[obj] {
			return false
		}
		seen[obj] = true
		if obj.Parent() == nil || obj.Parent() == c.pass.Pkg.Scope() {
			return false
		}
		return c.mapVarBounded(obj, depth-1, seen)
	}
	return false
}

// mapKeysBounded checks a map composite literal for bounded keys.
func (c *checker) mapKeysBounded(cl *ast.CompositeLit, depth int, seen map[types.Object]bool) bool {
	t := c.pass.TypesInfo.TypeOf(cl)
	if t == nil {
		return false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok || !c.bounded(kv.Key, depth, seen) {
			return false
		}
	}
	return true
}

// mapVarBounded proves a local map variable's key set is bounded: every
// assignment is a bounded-key map literal, every m[k]=v insertion uses a
// bounded key, and the map is never aliased (address taken, passed on).
func (c *checker) mapVarBounded(obj *types.Var, depth int, seen map[types.Object]bool) bool {
	found := false
	ok := true
	ident := func(e ast.Expr) types.Object {
		id, isIdent := ast.Unparen(e).(*ast.Ident)
		if !isIdent {
			return nil
		}
		if o := c.pass.TypesInfo.Defs[id]; o != nil {
			return o
		}
		return c.pass.TypesInfo.Uses[id]
	}
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					if ident(lhs) == obj {
						found = true
						good := false
						if len(s.Rhs) == len(s.Lhs) {
							if lit, isCl := ast.Unparen(s.Rhs[i]).(*ast.CompositeLit); isCl {
								good = c.mapKeysBounded(lit, depth, seen)
							}
						}
						if !good {
							ok = false
						}
					}
					// m[k] = v grows the key set: k must be bounded.
					if ix, isIx := ast.Unparen(lhs).(*ast.IndexExpr); isIx && ident(ix.X) == obj {
						if !c.bounded(ix.Index, depth, seen) {
							ok = false
						}
					}
				}
			case *ast.CallExpr:
				// The map escaping as an argument could be grown elsewhere.
				for _, arg := range s.Args {
					if ident(arg) == obj {
						ok = false
					}
				}
			case *ast.UnaryExpr:
				if s.Op == token.AND && ident(s.X) == obj {
					ok = false
				}
			}
			return ok
		})
		if !ok {
			break
		}
	}
	return ok && found
}

// funcDecl finds the declaration of an intra-package function object.
func (c *checker) funcDecl(fn types.Object) *ast.FuncDecl {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && c.pass.TypesInfo.Defs[d.Name] == fn {
				return d
			}
		}
	}
	return nil
}

// buildParamIndex maps parameter objects to their function and index.
func buildParamIndex(pass *analysis.Pass) map[types.Object]paramSite {
	idx := make(map[types.Object]paramSite)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Type.Params == nil {
				continue
			}
			fnObj := pass.TypesInfo.Defs[fn.Name]
			if fnObj == nil {
				continue
			}
			i := 0
			for _, field := range fn.Type.Params.List {
				for _, nm := range field.Names {
					if obj := pass.TypesInfo.Defs[nm]; obj != nil {
						idx[obj] = paramSite{fn: fnObj, index: i}
					}
					i++
				}
				if len(field.Names) == 0 {
					i++
				}
			}
		}
	}
	return idx
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "expression"
}
