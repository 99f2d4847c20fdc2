// Package journalfirst enforces the write-ahead rule from the durable
// event log design (PR 2): a Server method that mutates event-sourced
// state must buffer the journal record (journalBuffered /
// journalBufferedPayload) BEFORE assigning the tracked fields — or calling
// a mutating method on one that holds a stateful object — so a crash
// between the two replays the mutation instead of losing it.
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

// tracked is the event-sourced Server state: every field whose value is
// reconstructed by WAL replay. Derived caches and durability bookkeeping
// (journal, lastLSN, snapLSN, ...) are deliberately absent.
var tracked = map[string]bool{
	"users":        true,
	"userOrder":    true,
	"tasks":        true,
	"domainOf":     true,
	"pending":      true,
	"observations": true,
	"truths":       true,
	"day":          true,
	"store":        true,
	"domains":      true,
}

// mutators lists, for the tracked fields that hold a stateful object rather
// than a value, the methods that change it: a call to one writes the field.
var mutators = map[string]map[string]bool{
	"domains": {"Identify": true},
}

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
	if _, ok := server.Type().Underlying().(*types.Struct); !ok {
		return nil
	}
	c := &checker{pass: pass, server: server}
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
	pass   *analysis.Pass
	server types.Object
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

	// trackedField returns the tracked Server field e selects, if any.
	trackedField := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || !c.isServerExpr(sel.X) || !tracked[sel.Sel.Name] {
			return "", false
		}
		return sel.Sel.Name, true
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
		if field, ok := trackedField(lhs); ok {
			report(pos, field, "assigned")
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
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok {
				if field, ok := trackedField(sel.X); ok && mutators[field][sel.Sel.Name] {
					report(s.Pos(), field, "mutated by "+sel.Sel.Name)
				}
			}
		}
		return true
	})
}
