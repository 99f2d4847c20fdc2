// Package spandiscipline enforces the tracing rules from the
// end-to-end write tracing design (PR 9): every span or trace handle
// obtained from a trace.Start* call must be ended on every path out of
// the function that started it. A started-but-never-ended span stays
// Dur=0 forever — the flight recorder renders it as "still open", the
// fsync-wait breakdowns go missing from /v1/admin/traces, and nobody
// notices until a latency investigation needs exactly that span.
//
// The rule: a variable assigned from a call named Start* whose result
// is a *trace.Trace or *trace.Span must reach a dominating End() —
// either a `defer v.End()` or an `v.End()` call on every path to every
// return — inside the function that started it, unless the handle
// escapes:
//
//   - passed as an argument to another call (the callee owns the End,
//     e.g. journalCommit closing the fsync-wait span), except
//     trace.NewContext, which is a pure carrier and never ends spans;
//   - returned to the caller;
//   - aliased, stored into a structure, or captured by a nested
//     function literal.
//
// Discarding a Start* result outright is always an error: nothing can
// ever end it.
//
// Because Start* on a nil handle returns nil and every method on a nil
// handle is a no-op, the guarded shape `if v != nil { v.End() }` is a
// complete discharge: on the path where v is nil there is no span to
// end. The walk understands `v != nil` / `v == nil` conditions.
//
// Scope: the packages that own the write path — eta2 itself and
// internal/{httpapi,wal,repl}. Test files are exempt (they routinely
// exercise half-finished traces). Deliberate exceptions are annotated
//
//	//eta2:spandiscipline-ok <why the span intentionally stays open>
//
// per line or per function. The walk is linear and intraprocedural,
// like lockdiscipline; function-literal bodies are analyzed as their
// own scopes.
package spandiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"eta2lint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "spandiscipline",
	Doc:  "trace.Start* results must be ended on every path (End, defer End, or escape)",
	Run:  run,
}

// scopeRE names the packages under the rule: the root serving package
// and the write-path internals. internal/trace itself is exempt — it
// builds the half-open handles by definition.
var scopeRE = regexp.MustCompile(`^eta2(/internal/(httpapi|wal|repl))?$`)

func run(pass *analysis.Pass) error {
	if !scopeRE.MatchString(pass.Pkg.Path()) {
		return nil
	}
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.FuncSuppressed(fn) {
				continue
			}
			c.checkScope(fn.Name.Name, fn.Body)
			// Function literals are separate scopes: a handle started
			// inside a closure must be ended (or escape) inside it.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.checkScope(fn.Name.Name+" (func literal)", lit.Body)
					return false
				}
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// tracked is one Start* result variable under analysis in a scope.
type tracked struct {
	pos    token.Pos // the Start* call, for reporting
	callee string    // "StartSpan" / "StartRoot"
	name   string    // variable name, for the message
}

// checkScope runs the discipline over one function body. Nested
// function literals are skipped here (run analyzes them separately);
// a tracked handle referenced inside one counts as escaped.
func (c *checker) checkScope(name string, body *ast.BlockStmt) {
	vars := c.collectTracked(body)
	if len(vars) == 0 {
		return
	}
	c.markEscapes(body, vars)
	c.markDeferredEnds(body, vars)
	w := &walker{c: c, vars: vars, reported: make(map[types.Object]bool)}
	open := make(openSet)
	if term := w.walk(body.List, open); !term {
		// Falling off the end of the function is a return too.
		w.reportOpen(open)
	}
}

// collectTracked finds variables assigned from Start* calls and reports
// Start* results that are discarded outright. Nested function literals
// are separate scopes and skipped.
func (c *checker) collectTracked(body *ast.BlockStmt) map[types.Object]*tracked {
	vars := make(map[types.Object]*tracked)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if callee, ok := c.isStartCall(call); ok {
					c.pass.Reportf(call.Pos(),
						"%s result discarded: the span can never be ended — assign it and End it on every path, or annotate //eta2:spandiscipline-ok", callee)
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return true
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, ok := c.isStartCall(call)
			if !ok {
				return true
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				c.pass.Reportf(call.Pos(),
					"%s result discarded: the span can never be ended — assign it and End it on every path, or annotate //eta2:spandiscipline-ok", callee)
				return true
			}
			if obj := c.objFor(id); obj != nil {
				vars[obj] = &tracked{pos: call.Pos(), callee: callee, name: id.Name}
			}
		}
		return true
	})
	return vars
}

// markEscapes removes from vars every handle whose End obligation moves
// elsewhere: call arguments (except the trace.NewContext carrier),
// return values, aliases and stores, composite literals, channel sends,
// address-taking, and capture by a nested function literal.
func (c *checker) markEscapes(body *ast.BlockStmt, vars map[types.Object]*tracked) {
	escape := func(e ast.Node) {
		ast.Inspect(e, func(n ast.Node) bool {
			// A nested carrier call keeps ownership with the starter even
			// in escape position (return trace.NewContext(ctx, t)).
			if call, ok := n.(*ast.CallExpr); ok && c.isCarrierCall(call) {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.objFor(id); obj != nil {
					delete(vars, obj)
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			// Captured by a closure: the closure may End it later.
			escape(s)
			return false
		case *ast.CallExpr:
			if c.isCarrierCall(s) {
				// trace.NewContext only threads the handle through a
				// context; the starter still owns the End.
				return true
			}
			for _, arg := range s.Args {
				escape(arg)
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				escape(r)
			}
		case *ast.AssignStmt:
			// Aliasing (x := sp) or storing (s.span = sp): the handle has
			// a second owner. Call results on the RHS are skipped — the
			// CallExpr case escapes their arguments, and a receiver use
			// (sp := tr.StartSpan(...)) is not an escape of tr.
			for _, r := range s.Rhs {
				if _, isCall := r.(*ast.CallExpr); !isCall {
					escape(r)
				}
			}
		case *ast.CompositeLit:
			for _, el := range s.Elts {
				escape(el)
			}
		case *ast.SendStmt:
			escape(s.Value)
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				escape(s.X)
			}
		}
		return true
	})
}

// markDeferredEnds discharges handles with a `defer v.End()`.
func (c *checker) markDeferredEnds(body *ast.BlockStmt, vars map[types.Object]*tracked) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if obj := c.endReceiver(d.Call); obj != nil {
			delete(vars, obj)
		}
		return true
	})
}

// isStartCall reports whether call is a method call named Start* whose
// result is a *Trace or *Span from the trace package.
func (c *checker) isStartCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Start") {
		return "", false
	}
	t := c.pass.TypesInfo.TypeOf(call)
	if t == nil {
		return "", false
	}
	p, ok := t.(*types.Pointer)
	if !ok {
		return "", false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/trace") {
		return "", false
	}
	if obj.Name() != "Trace" && obj.Name() != "Span" {
		return "", false
	}
	return sel.Sel.Name, true
}

// isCarrierCall recognizes trace.NewContext, the one call that receives
// a handle without taking over its End obligation.
func (c *checker) isCarrierCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewContext" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := c.pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && strings.HasSuffix(pn.Imported().Path(), "internal/trace")
}

// endReceiver returns the object of v in a call shaped v.End(), nil
// otherwise.
func (c *checker) endReceiver(call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return c.objFor(id)
}

func (c *checker) objFor(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// ---- the path walk ------------------------------------------------------

// openSet tracks handles started but not yet ended on the current path.
type openSet map[types.Object]*tracked

func (o openSet) clone() openSet {
	c := make(openSet, len(o))
	for k, v := range o {
		c[k] = v
	}
	return c
}

type walker struct {
	c        *checker
	vars     map[types.Object]*tracked // required (non-escaped, non-deferred) handles
	reported map[types.Object]bool
}

func (w *walker) reportOpen(open openSet) {
	for obj, tk := range open {
		if w.reported[obj] {
			continue
		}
		w.reported[obj] = true
		w.c.pass.Reportf(tk.pos,
			"%s result %s is not ended on every path: add a dominating %s.End() (or defer it) before each return, or annotate //eta2:spandiscipline-ok",
			tk.callee, tk.name, tk.name)
	}
}

// walk threads the open-handle set through a statement list, reporting
// handles still open at a return. Returns whether the list always
// terminates. The merge at a branch join is a union: a handle left open
// on any surviving path is still open.
func (w *walker) walk(stmts []ast.Stmt, open openSet) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if obj := w.c.endReceiver(call); obj != nil {
					delete(open, obj)
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					if obj := w.c.objFor(id); obj != nil {
						if tk, required := w.vars[obj]; required {
							if call, isCall := s.Rhs[0].(*ast.CallExpr); isCall {
								if _, isStart := w.c.isStartCall(call); isStart {
									open[obj] = tk
								}
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			w.reportOpen(open)
			return true
		case *ast.BlockStmt:
			if w.walk(s.List, open) {
				return true
			}
		case *ast.IfStmt:
			thenOpen := open.clone()
			elseOpen := open.clone()
			// `if v != nil { ... }`: on the else path v is nil — Start
			// returned the no-op handle, so there is nothing to end.
			// Symmetrically for `if v == nil`.
			if obj, eq := w.nilCheck(s.Cond); obj != nil {
				if eq {
					delete(thenOpen, obj)
				} else {
					delete(elseOpen, obj)
				}
			}
			thenTerm := w.walk(s.Body.List, thenOpen)
			elseTerm := false
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseTerm = w.walk(e.List, elseOpen)
			case *ast.IfStmt:
				elseTerm = w.walk([]ast.Stmt{e}, elseOpen)
			}
			switch {
			case thenTerm && elseTerm:
				return true
			case thenTerm:
				replace(open, elseOpen)
			case elseTerm:
				replace(open, thenOpen)
			default:
				merged := union(thenOpen, elseOpen)
				replace(open, merged)
			}
		case *ast.ForStmt:
			body := open.clone()
			w.walk(s.Body.List, body)
			replace(open, union(open, body))
		case *ast.RangeStmt:
			body := open.clone()
			w.walk(s.Body.List, body)
			replace(open, union(open, body))
		case *ast.SwitchStmt:
			w.walkCases(s.Body.List, open)
		case *ast.TypeSwitchStmt:
			w.walkCases(s.Body.List, open)
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				body := open.clone()
				w.walk(cc.(*ast.CommClause).Body, body)
				replace(open, union(open, body))
			}
		case *ast.LabeledStmt:
			if w.walk([]ast.Stmt{s.Stmt}, open) {
				return true
			}
		}
	}
	return false
}

// walkCases merges switch case bodies: a handle open at the end of any
// non-terminating case (or before the switch, if no case runs) stays
// open.
func (w *walker) walkCases(clauses []ast.Stmt, open openSet) {
	out := open.clone()
	for _, cc := range clauses {
		body := open.clone()
		if !w.walk(cc.(*ast.CaseClause).Body, body) {
			replace(out, union(out, body))
		}
	}
	replace(open, out)
}

// nilCheck recognizes `v != nil` (eq=false) and `v == nil` (eq=true)
// over a tracked handle.
func (w *walker) nilCheck(cond ast.Expr) (types.Object, bool) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil, false
	}
	x, y := bin.X, bin.Y
	if isNilIdent(y) {
		// v OP nil
	} else if isNilIdent(x) {
		x = y
	} else {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := w.c.objFor(id)
	if obj == nil {
		return nil, false
	}
	if _, tracked := w.vars[obj]; !tracked {
		return nil, false
	}
	return obj, bin.Op == token.EQL
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func union(a, b openSet) openSet {
	out := a.clone()
	for k, v := range b {
		out[k] = v
	}
	return out
}

// replace rewrites dst in place to equal src (walk threads one map).
func replace(dst, src openSet) {
	for k := range dst {
		if _, ok := src[k]; !ok {
			delete(dst, k)
		}
	}
	for k, v := range src {
		dst[k] = v
	}
}
