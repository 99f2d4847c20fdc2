// Package lockdiscipline enforces the Server locking rules from the
// concurrent-serving design (PR 3):
//
//  1. An exported method on *Server that writes Server fields must
//     acquire the writer lock (s.mu.Lock).
//  2. No WAL Commit/Sync, file fsync, journalCommit, or net/http call
//     may execute while s.mu is held: group commit waits on fsync, and
//     holding the server lock across that wait serializes every writer
//     behind disk latency.
//  3. Query-surface methods (Truth, Expertise, Domain, ...) and the state
//     captures (SaveStateBinary, CaptureReplicationSnapshot) must not
//     touch s.mu at all — s.mu is writer–writer only; whatever only reads
//     loads the published immutable state.
//  4. The state snapshot pointer is published (Store/Swap/CompareAndSwap
//     on s.state) only inside the single publishLocked helper, so every
//     publication carries the same bookkeeping and ordering.
//
// Deliberate exceptions (e.g. a stop-the-world fsync during
// compaction) are annotated per line or per function:
//
//	//eta2:lockdiscipline-ok <why the wait under lock is intended>
//
// The lock-state walk is linear and intraprocedural; function-literal
// bodies are skipped (they run at call time, under unknown lock state).
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"eta2lint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "Server methods: writer lock for writes, none for reads; no fsync/commit/network while mu held",
	Run:  run,
}

type checker struct {
	pass   *analysis.Pass
	server types.Object // the Server type's *types.TypeName
}

func run(pass *analysis.Pass) error {
	server := findServer(pass.Pkg)
	if server == nil {
		return nil
	}
	c := &checker{pass: pass, server: server}
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
			// Rule 4 applies to plain functions too (anything can hold a
			// *Server); the method-only rules follow the receiver check.
			c.checkPublish(fn)
			if fn.Recv == nil || !c.isServerRecv(fn) {
				continue
			}
			c.checkWriteLock(fn)
			c.checkReadPath(fn)
			// Convention: a method named *Locked runs with s.mu already
			// write-held by its caller.
			c.walkStmts(fn.Body.List, strings.HasSuffix(fn.Name.Name, "Locked"))
		}
	}
	return nil
}

// findServer locates a type Server struct{ mu sync.Mutex; ... }.
func findServer(pkg *types.Package) types.Object {
	obj := pkg.Scope().Lookup("Server")
	if obj == nil {
		return nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "mu" && isNamed(f.Type(), "sync", "Mutex") {
			return obj
		}
	}
	return nil
}

func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

func (c *checker) isServerRecv(fn *ast.FuncDecl) bool {
	if len(fn.Recv.List) != 1 {
		return false
	}
	return c.isServerExpr(fn.Recv.List[0].Type)
}

// isServerExpr reports whether e's type, pointer-stripped, is Server.
func (c *checker) isServerExpr(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == c.server
}

// --- rule 1: exported writers must take the writer lock ------------------

func (c *checker) checkWriteLock(fn *ast.FuncDecl) {
	if !ast.IsExported(fn.Name.Name) {
		return
	}
	writes := c.fieldWrites(fn.Body)
	if len(writes) == 0 {
		return
	}
	hasLock := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := c.muOp(call); ok && op == "Lock" {
				hasLock = true
			}
		}
		return !hasLock
	})
	if !hasLock {
		c.pass.Reportf(writes[0].pos, "exported method %s writes Server field %s without s.mu.Lock", fn.Name.Name, writes[0].field)
	}
}

type fieldWrite struct {
	pos   token.Pos
	field string
}

// fieldWrites collects assignments to Server fields, including map/slice
// element stores through a field, stores to a field of a struct-valued
// field, and ++/--.
func (c *checker) fieldWrites(body ast.Node) []fieldWrite {
	var writes []fieldWrite
	add := func(lhs ast.Expr) {
		// Unwrap down to the Server's own field: s.users[k] = v writes field
		// users, s.w.day++ writes field w (the working state is a struct value
		// inside the Server, so a store to its field is a store to the Server).
		for {
			switch x := lhs.(type) {
			case *ast.IndexExpr:
				lhs = x.X
				continue
			case *ast.SelectorExpr:
				if c.isServerExpr(x.X) {
					writes = append(writes, fieldWrite{pos: lhs.Pos(), field: x.Sel.Name})
				} else if _, inStruct := c.pass.TypesInfo.TypeOf(x.X).Underlying().(*types.Struct); inStruct {
					lhs = x.X
					continue
				}
			}
			return
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				add(lhs)
			}
		case *ast.IncDecStmt:
			add(s.X)
		}
		return true
	})
	return writes
}

// --- rule 3: the query surface is lock-free ------------------------------

// querySurface lists the methods that only read: the queries, and the
// captures that encode the state for a snapshot file or a follower
// bootstrap. They serve from the published immutable state and must not
// reference s.mu in any way, or one writer parked on the lock stalls every
// reader behind it.
var querySurface = map[string]bool{
	"Truth":                      true,
	"Expertise":                  true,
	"ExpertiseInDomain":          true,
	"Domain":                     true,
	"NumUsers":                   true,
	"NumDomains":                 true,
	"Day":                        true,
	"DurabilityStats":            true,
	"ReplicationStatus":          true,
	"CommittedLSN":               true,
	"SaveStateBinary":            true,
	"CaptureReplicationSnapshot": true,
}

func (c *checker) checkReadPath(fn *ast.FuncDecl) {
	if !querySurface[fn.Name.Name] {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "mu" && c.isServerExpr(sel.X) {
			c.pass.Reportf(sel.Pos(), "query-surface method %s touches s.mu: reads and state captures are lock-free, serve from the published state", fn.Name.Name)
		}
		return true
	})
}

// --- rule 4: one publication point ---------------------------------------

// checkPublish flags Store/Swap/CompareAndSwap on the Server's state
// pointer anywhere outside publishLocked. Concentrating publication in
// one helper keeps the metrics, ordering, and copy-on-write obligations
// in one reviewed place.
func (c *checker) checkPublish(fn *ast.FuncDecl) {
	if fn.Name.Name == "publishLocked" {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Store", "Swap", "CompareAndSwap":
		default:
			return true
		}
		field, ok := sel.X.(*ast.SelectorExpr)
		if !ok || field.Sel.Name != "state" || !c.isServerExpr(field.X) {
			return true
		}
		c.pass.Reportf(call.Pos(), "state snapshot published outside publishLocked: route all publications through the single publish helper")
		return true
	})
}

// --- rule 2: nothing slow while mu is held -------------------------------

// walkStmts tracks whether s.mu is held through a statement list, reporting
// forbidden calls made while it is. Returns the state at the end and
// whether the list always terminates (returns).
func (c *checker) walkStmts(stmts []ast.Stmt, held bool) (bool, bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if op, ok := c.muOp(call); ok {
					held = op == "Lock"
					continue
				}
			}
			c.checkCalls(s, held)
		case *ast.ReturnStmt:
			c.checkCalls(s, held)
			return held, true
		case *ast.DeferStmt:
			// defer s.mu.Unlock() releases at return: state is unchanged
			// for the statements that follow, which is exactly the linear
			// reading. Other deferred calls run under unknown state; skip.
		case *ast.GoStmt:
			// New goroutine: starts unlocked; body skipped like a FuncLit.
		case *ast.BlockStmt:
			var term bool
			if held, term = c.walkStmts(s.List, held); term {
				return held, true
			}
		case *ast.IfStmt:
			if s.Init != nil {
				c.checkCalls(s.Init, held)
			}
			c.checkCalls(s.Cond, held)
			bodyOut, bodyTerm := c.walkStmts(s.Body.List, held)
			elseOut, elseTerm := held, false
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseOut, elseTerm = c.walkStmts(e.List, held)
			case *ast.IfStmt:
				elseOut, elseTerm = c.walkStmts([]ast.Stmt{e}, held)
			}
			switch {
			case bodyTerm && elseTerm:
				return held, s.Else != nil
			case bodyTerm:
				held = elseOut
			case elseTerm:
				held = bodyOut
			default:
				held = bodyOut || elseOut
			}
		case *ast.ForStmt:
			if s.Init != nil {
				c.checkCalls(s.Init, held)
			}
			if s.Cond != nil {
				c.checkCalls(s.Cond, held)
			}
			c.walkStmts(s.Body.List, held)
		case *ast.RangeStmt:
			c.checkCalls(s.X, held)
			c.walkStmts(s.Body.List, held)
		case *ast.SwitchStmt:
			if s.Init != nil {
				c.checkCalls(s.Init, held)
			}
			if s.Tag != nil {
				c.checkCalls(s.Tag, held)
			}
			for _, cc := range s.Body.List {
				c.walkStmts(cc.(*ast.CaseClause).Body, held)
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range s.Body.List {
				c.walkStmts(cc.(*ast.CaseClause).Body, held)
			}
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				c.walkStmts(cc.(*ast.CommClause).Body, held)
			}
		case *ast.LabeledStmt:
			var term bool
			if held, term = c.walkStmts([]ast.Stmt{s.Stmt}, held); term {
				return held, true
			}
		default:
			c.checkCalls(stmt, held)
		}
	}
	return held, false
}

// checkCalls reports forbidden calls inside n given the lock state,
// without descending into function literals.
func (c *checker) checkCalls(n ast.Node, held bool) {
	if !held || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if why := c.forbidden(call); why != "" {
			c.pass.Reportf(call.Pos(), "%s while s.mu is held: release the lock first or annotate //eta2:lockdiscipline-ok", why)
		}
		return true
	})
}

// forbidden classifies calls that must not run under s.mu.
func (c *checker) forbidden(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name

	// s.journalCommit waits on the WAL group commit.
	if c.isServerExpr(sel.X) && name == "journalCommit" {
		return name + " (waits on group commit)"
	}

	// Method receiver classification via type information.
	recv := c.pass.TypesInfo.TypeOf(sel.X)
	if recv != nil {
		if p, ok := recv.Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		if n, ok := recv.(*types.Named); ok {
			obj := n.Obj()
			pkgPath := ""
			if obj.Pkg() != nil {
				pkgPath = obj.Pkg().Path()
			}
			if strings.HasSuffix(pkgPath, "internal/wal") && (name == "Commit" || name == "CommitReported" || name == "Sync") {
				return "WAL " + name + " (fsync wait)"
			}
			if pkgPath == "os" && obj.Name() == "File" && name == "Sync" {
				return "file fsync"
			}
			if pkgPath == "net/http" {
				return "net/http call"
			}
		}
	}

	// Package-level net/http functions (http.Get, http.Post, ...).
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := c.pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "net/http" {
			return "net/http call"
		}
	}
	return ""
}

// muOp recognizes s.mu.Lock/Unlock on the Server mutex.
func (c *checker) muOp(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock":
	default:
		return "", false
	}
	mu, ok := sel.X.(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != "mu" || !c.isServerExpr(mu.X) {
		return "", false
	}
	return sel.Sel.Name, true
}
