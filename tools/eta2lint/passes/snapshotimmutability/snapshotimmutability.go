// Package snapshotimmutability proves at compile time that published
// snapshots are never mutated. The server's lock-free read path works
// because every Write of its rcu.Cell publishes an immutable copy of the
// working serverState; every write after publication must go through
// copy-on-write — build a fresh container, then swap the field
// wholesale. A single `tx.W.users[id] = u` on the live map is a data race
// against every in-flight reader and silently corrupts snapshots that
// were supposed to be frozen.
//
// The analyzer reads the snapshot shape off the declarations: the
// published type is the type argument of the rcu.Cell a type of the
// package holds, and every reference-typed field of a value of that type
// — the working copy a *rcu.Tx holds, a state loaded from the cell, a
// parameter — is a container shared with published snapshots.
// It then flags, in every function of the package:
//
//   - writes through such a container or a value aliasing one (map/slice
//     element stores, field stores through pointers, delete/copy);
//   - calls that pass a snapshot-reachable value to a function that
//     writes through that parameter — including functions in other
//     packages, via the write-through-parameter facts of the callgraph
//     engine, and interface methods via its binds.
//
// Assigning a field of the working copy (`tx.W.users = next`) is the legal
// copy-on-write swap: it changes the next snapshot, not a published one.
// No rule marks it: tx.W is a field of a non-pointer struct held behind a
// pointer that is not itself snapshot memory.
//
// Aliasing is tracked through reference-typed assignments; value copies
// and calls to clone/constructor-shaped functions (new*, make*, clone*,
// copy*, decode*, restore*) break the taint, which is exactly the legal
// copy-on-write idiom. Clone/constructor-shaped functions are themselves
// exempt from write checks: their whole job is building the next
// snapshot. Audited escape hatch:
//
//	//eta2:snapshotimmutability-ok <why this write cannot reach a published snapshot>
//
// On a field declaration of the published type the directive declares the
// field a published handle instead: an internally synchronized object the
// snapshot carries so readers can reach it, not frozen data. It is then not
// tainted when read off a snapshot — one justification where the handle is
// declared rather than one at every use.
package snapshotimmutability

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"eta2lint/internal/analysis"
	"eta2lint/internal/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "snapshotimmutability",
	Doc:  "forbid writes to values reachable from the published snapshot outside clone/constructor functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	g, err := callgraph.Analyze(pass)
	if err != nil {
		return err
	}
	snap, handles := derivePublish(pass)
	if snap == nil {
		return nil // no state cell here; this package only contributes facts
	}
	for _, decl := range g.LocalDecls {
		if isCloneName(decl.Name.Name) || pass.FuncSuppressed(decl) {
			continue
		}
		c := &checker{
			pass:    pass,
			g:       g,
			snap:    snap,
			handles: handles,
			tainted: make(map[*types.Var]bool),
		}
		c.check(decl)
	}
	return nil
}

// derivePublish reads the snapshot contract off the declarations: snap is
// the type the package's rcu.Cell holds, and handles names its fields
// declared as synchronized handles.
func derivePublish(pass *analysis.Pass) (snap *types.Named, handles map[string]bool) {
	if _, snap = analysis.PublishedType(pass.Pkg); snap == nil {
		return nil, nil
	}
	handles = make(map[string]bool)
	fields := snap.Underlying().(*types.Struct)
	for i := 0; i < fields.NumFields(); i++ {
		if f := fields.Field(i); pass.SuppressedAt(f.Pos()) {
			handles[f.Name()] = true
		}
	}
	return snap, handles
}

// checker runs the per-function taint + write analysis.
type checker struct {
	pass    *analysis.Pass
	g       *callgraph.Graph
	snap    *types.Named
	handles map[string]bool
	tainted map[*types.Var]bool
}

func (c *checker) check(decl *ast.FuncDecl) {
	obj, ok := c.pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	// Snapshot-typed parameters arrive from outside the function: assume
	// published. (A *rcu.Tx is not itself tainted — only the working copy
	// it holds is.)
	if recv := sig.Recv(); recv != nil && c.isSnapType(recv.Type()) {
		c.tainted[recv] = true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); c.isSnapType(p.Type()) {
			c.tainted[p] = true
		}
	}

	// Taint propagation to a fixpoint (taint only grows, so this
	// terminates; loops in the body may need a few rounds).
	for {
		before := len(c.tainted)
		c.propagate(decl.Body)
		if len(c.tainted) == before {
			break
		}
	}
	c.findWrites(decl.Body)
}

// propagate marks local variables that alias snapshot-reachable memory.
func (c *checker) propagate(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				// Tuple assignment from a call: taint snapshot-typed
				// results unless the callee is clone-shaped.
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					callee := callgraph.Callee(c.pass.TypesInfo, call)
					if callee != nil && isCloneName(callee.Name()) {
						return true
					}
					for _, lhs := range n.Lhs {
						if v := c.varOf(lhs); v != nil && c.isSnapType(v.Type()) {
							c.tainted[v] = true
						}
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				v := c.varOf(lhs)
				if v == nil || c.tainted[v] {
					continue
				}
				if (c.refLike(v.Type()) || c.isSnapType(v.Type())) && c.taintedExpr(n.Rhs[i]) {
					c.tainted[v] = true // a copied snapshot value shares its containers
				}
			}
		case *ast.RangeStmt:
			if !c.taintedExpr(n.X) {
				return true
			}
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if v := c.varOf(e); v != nil && c.refLike(v.Type()) {
					c.tainted[v] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i >= len(n.Values) {
					break
				}
				v, _ := c.pass.TypesInfo.Defs[name].(*types.Var)
				if v != nil && !c.tainted[v] && c.refLike(v.Type()) && c.taintedExpr(n.Values[i]) {
					c.tainted[v] = true
				}
			}
		}
		return true
	})
}

// findWrites reports stores and mutating calls that reach published
// snapshot memory.
func (c *checker) findWrites(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X)
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

// checkWrite flags a store whose target dereferences (map/slice element,
// field through pointer, explicit *) a snapshot-reachable base.
// Replacing a field of the working copy wholesale (`tx.W.users = next`)
// is the legal copy-on-write swap and is not a dereference of the shared
// container, so it passes.
func (c *checker) checkWrite(lhs ast.Expr) {
	expr := lhs
	derefs := 0
	for {
		if derefs > 0 && c.taintedExpr(expr) {
			c.pass.Reportf(lhs.Pos(),
				"snapshot immutability: write to %s mutates memory reachable from the published snapshot; clone before mutating (copy-on-write), then republish",
				types.ExprString(lhs))
			return
		}
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.StarExpr:
			derefs++
			expr = x.X
		case *ast.IndexExpr:
			switch c.typeOf(x.X).(type) {
			case *types.Map, *types.Slice, *types.Pointer:
				derefs++
			}
			expr = x.X
		case *ast.SelectorExpr:
			if _, ok := c.typeOf(x.X).(*types.Pointer); ok {
				derefs++
			}
			expr = x.X
		default:
			return
		}
	}
}

// checkCall flags builtin mutations of tainted containers and calls
// passing tainted values into parameters the callee writes through.
func (c *checker) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if (id.Name == "delete" || id.Name == "copy") && len(call.Args) > 0 && c.taintedExpr(call.Args[0]) {
				c.pass.Reportf(call.Pos(),
					"snapshot immutability: %s mutates %s, which is reachable from the published snapshot; clone before mutating",
					id.Name, types.ExprString(call.Args[0]))
			}
			return
		}
	}
	callee := callgraph.Callee(c.pass.TypesInfo, call)
	if callee == nil || isCloneName(callee.Name()) {
		return
	}
	args := callgraph.CallArgs(c.pass.TypesInfo, call, callee)
	for idx, arg := range args {
		if !c.taintedExpr(arg) {
			continue
		}
		if target, ok := c.writesParam(callee.FullName(), idx); ok {
			c.pass.Reportf(call.Pos(),
				"snapshot immutability: call passes snapshot-reachable %s to %s, which writes through that parameter; pass a clone instead",
				types.ExprString(arg), target)
		}
	}
}

// writesParam consults the callgraph facts (local summaries, imported
// summaries, interface binds) for a write through parameter idx.
func (c *checker) writesParam(callee string, idx int) (string, bool) {
	if fs := c.g.Func(callee); fs != nil && fs.WritesParam(idx) {
		return callee, true
	}
	for _, impl := range c.g.Impls(callee) {
		if fs := c.g.Func(impl); fs != nil && fs.WritesParam(idx) {
			return impl, true
		}
	}
	return "", false
}

// taintedExpr reports whether the expression evaluates to memory
// reachable from a published snapshot.
func (c *checker) taintedExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := c.pass.TypesInfo.Uses[x].(*types.Var)
		return v != nil && c.tainted[v]
	case *ast.SelectorExpr:
		// A published handle read off a snapshot is not frozen data.
		if c.handles[x.Sel.Name] && c.isSnapType(c.pass.TypesInfo.TypeOf(x.X)) {
			return false
		}
		// Any reference-typed field reached off tainted memory.
		if c.taintedExpr(x.X) {
			t := c.pass.TypesInfo.TypeOf(ast.Expr(x))
			return t != nil && (c.refLike(t) || c.isSnapType(t))
		}
		// A snapshot-typed value read from anywhere else — the working
		// copy a *rcu.Tx holds, a global — shares its containers with
		// published snapshots.
		if t := c.pass.TypesInfo.TypeOf(ast.Expr(x)); t != nil && c.isSnapType(t) {
			return true
		}
		return false
	case *ast.IndexExpr:
		if !c.taintedExpr(x.X) {
			return false
		}
		t := c.pass.TypesInfo.TypeOf(ast.Expr(x))
		return t != nil && (c.refLike(t) || c.isSnapType(t))
	case *ast.CallExpr:
		callee := callgraph.Callee(c.pass.TypesInfo, x)
		if callee != nil && isCloneName(callee.Name()) {
			return false // clone-shaped calls return fresh memory
		}
		// A call handing back the snapshot type (the cell's Load, an
		// accessor) yields published memory.
		t := c.pass.TypesInfo.TypeOf(ast.Expr(x))
		return t != nil && c.isSnapType(t)
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
			return false // &T{...} is fresh
		}
		return c.taintedExpr(x.X)
	}
	return false
}

func (c *checker) varOf(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := c.pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func (c *checker) isSnapType(t types.Type) bool {
	return namedOf(t) == c.snap
}

// refLike reports whether values of t alias underlying storage.
func (c *checker) refLike(t types.Type) bool { return refLikeType(t) }

func refLikeType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Pointer, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// namedOf unwraps pointers to the named type, if any.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isCloneName matches the clone/constructor shapes whose purpose is
// building the next snapshot: they may write freely, and their return
// values are fresh memory.
func isCloneName(name string) bool {
	lower := strings.ToLower(name)
	for _, prefix := range []string{"new", "make", "clone", "copy", "decode", "restore"} {
		if strings.HasPrefix(lower, prefix) {
			return true
		}
	}
	return false
}
