// Package journalfirst enforces the write-ahead rule from the durable
// event log design (PR 2): a Server method that mutates event-sourced
// state must buffer the journal record (journalBuffered /
// journalBufferedPayload) BEFORE assigning the tracked fields — or calling
// a mutating method on an object a Server field holds — so a crash
// between the two replays the mutation instead of losing it.
//
// The tracked fields are read off the state's one declaration: the struct
// Server publishes behind an atomic.Pointer embeds its persistable part —
// what WAL replay reconstructs — and every field of that part is tracked,
// wherever under the Server it is assigned (s.w.users = ..., s.w.day++).
// What the struct declares directly is the node's durability bookkeeping
// (journal, lastLSN, snapLSN, ...) and is deliberately not.
//
// Replay/restore paths, which by construction apply already-journaled
// events, are exempted per function:
//
//	//eta2:journalfirst-ok <why this path must not journal>
package journalfirst

import (
	"go/ast"
	"go/token"
	"go/types"

	"eta2lint/internal/analysis"
)

// mutators are the methods that change event-sourced state kept inside an
// object (the domain identifier) rather than in a field: a call to one on
// an object a Server field holds is a write.
var mutators = map[string]bool{"Identify": true}

var Analyzer = &analysis.Analyzer{
	Name: "journalfirst",
	Doc:  "Server mutations must buffer the WAL record before assigning tracked state",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	server := pass.Pkg.Scope().Lookup("Server")
	if server == nil {
		return nil
	}
	named, ok := server.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	c := &checker{pass: pass, server: server, tracked: make(map[*types.Var]bool)}
	if state := analysis.PublishedType(named); state != nil {
		fields := state.Underlying().(*types.Struct)
		for i := 0; i < fields.NumFields(); i++ {
			part, ok := fields.Field(i).Type().Underlying().(*types.Struct)
			if !ok || !fields.Field(i).Embedded() {
				continue
			}
			for j := 0; j < part.NumFields(); j++ {
				c.tracked[part.Field(j)] = true
			}
		}
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !c.isServerRecv(fn) {
				continue
			}
			if pass.FuncSuppressed(fn) {
				continue
			}
			c.checkFunc(fn)
		}
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	server  types.Object
	tracked map[*types.Var]bool // the persistable fields of the published state
}

func (c *checker) isServerRecv(fn *ast.FuncDecl) bool {
	return len(fn.Recv.List) == 1 && c.isServerExpr(fn.Recv.List[0].Type)
}

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

func (c *checker) checkFunc(fn *ast.FuncDecl) {
	// Position of the first journal-buffer call anywhere in the method
	// (function literals included: the allocation env closure journals
	// inline, and its buffered write precedes its state write).
	journalPos := token.NoPos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !c.isServerExpr(sel.X) {
			return true
		}
		if sel.Sel.Name == "journalBuffered" || sel.Sel.Name == "journalBufferedPayload" {
			if !journalPos.IsValid() || call.Pos() < journalPos {
				journalPos = call.Pos()
			}
		}
		return true
	})

	report := func(pos token.Pos, field, verb string) {
		if journalPos.IsValid() && pos > journalPos {
			return
		}
		if !journalPos.IsValid() {
			c.pass.Reportf(pos, "Server.%s %s without journaling the event (method never calls journalBuffered); journal first or annotate //eta2:journalfirst-ok", field, verb)
			return
		}
		c.pass.Reportf(pos, "Server.%s %s before the event is journaled at %s; a crash here loses the mutation",
			field, verb, c.pass.Fset.Position(journalPos))
	}

	// underServer reports whether e selects into the Server: s, s.w, ...
	underServer := func(e ast.Expr) bool {
		for !c.isServerExpr(e) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			e = sel.X
		}
		return true
	}

	check := func(lhs ast.Expr) {
		pos := lhs.Pos()
		for {
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				lhs = ix.X
				continue
			}
			break
		}
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !underServer(sel.X) {
			return
		}
		if field, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Var); c.tracked[field] {
			report(pos, field.Name(), "assigned")
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(s.X)
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok && mutators[sel.Sel.Name] {
				if obj, ok := sel.X.(*ast.SelectorExpr); ok && c.isServerExpr(obj.X) {
					report(s.Pos(), obj.Sel.Name, "mutated by "+sel.Sel.Name)
				}
			}
		}
		return true
	})
}
