// Package lockdiscipline keeps waits off the server's writer lock. The lock
// is a type (internal/rcu): a writer holds it for exactly the call of the
// function it passes to (*rcu.Cell).Write, and the working state is reached
// only through the *rcu.Tx that call hands out, so a write without the lock,
// a read that takes it and a publish that skips it cannot be written. What a
// type cannot hold is what that function must not do while the lock is held.
// In a function literal passed to Write, and in any function with a *rcu.Tx
// parameter, this pass forbids:
//
//   - journalCommit, the wait on the WAL group commit;
//   - the WAL's Commit, CommitReported and Sync, and (*os.File).Sync;
//   - any net/http call.
//
// Group commit waits on fsync, and holding the lock across that wait
// serializes every writer behind disk (or network) latency. A function
// literal nested in such a function runs whenever it is called — a
// goroutine, a callback — so it is checked only if it takes a *rcu.Tx
// itself. Deliberate exceptions are annotated per line or per function:
//
//	//eta2:lockdiscipline-ok <why the wait under the lock is intended>
package lockdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"eta2lint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "no fsync, group-commit wait or network call inside a Write of the state cell",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || pass.FuncSuppressed(fn) {
				continue
			}
			if takesTx(pass, fn.Type) {
				check(pass, fn.Body)
			}
			// Every literal passed to Write takes the *rcu.Tx it hands out.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && takesTx(pass, lit.Type) {
					check(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// takesTx reports whether a function of type ft has a *rcu.Tx parameter.
func takesTx(pass *analysis.Pass, ft *ast.FuncType) bool {
	for _, p := range ft.Params.List {
		if analysis.RCUArg(pass.TypesInfo.TypeOf(p.Type), "Tx") != nil {
			return true
		}
	}
	return false
}

// check reports the forbidden calls in body, which runs with the writer lock
// held, without descending into function literals.
func check(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if why := forbidden(pass, call); why != "" {
				pass.Reportf(call.Pos(), "%s inside a Write of the state cell: wait after Write returns, or annotate //eta2:lockdiscipline-ok", why)
			}
		}
		return true
	})
}

// forbidden classifies calls that must not run under the writer lock.
func forbidden(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if name == "journalCommit" {
		return name + " (waits on group commit)"
	}
	// Package-level net/http functions (http.Get, http.Post, ...).
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "net/http" {
			return "net/http call"
		}
	}
	// Methods, classified by their receiver's type.
	recv := pass.TypesInfo.TypeOf(sel.X)
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	switch path := n.Obj().Pkg().Path(); {
	case strings.HasSuffix(path, "internal/wal") && (name == "Commit" || name == "CommitReported" || name == "Sync"):
		return "WAL " + name + " (fsync wait)"
	case path == "os" && n.Obj().Name() == "File" && name == "Sync":
		return "file fsync"
	case path == "net/http":
		return "net/http call"
	}
	return ""
}
