// Package journalfirst holds journal-before-apply as a rule on types. The
// server mints an unexported token, journaled, only when it appends a record
// or replays one, and its apply methods take it, so an apply called before
// its record is journaled does not compile. This pass checks the rest: a
// function that assigns a persisted field through a *rcu.Tx (every field of
// the struct the published state embeds, read off the declaration) or calls
// Identify on what a field of the server holds takes a journaled parameter —
// a function literal may also have it from the function it is written in —
// and a journaled{...} literal appears only in journal.go.
package journalfirst

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"eta2lint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "journalfirst",
	Doc:  "functions that assign persisted state through a *rcu.Tx take a journaled token, which only journal.go mints",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	server, state := analysis.PublishedType(pass.Pkg)
	if state == nil {
		return nil
	}
	tracked := make(map[*types.Var]bool)
	fields := state.Underlying().(*types.Struct)
	for i := 0; i < fields.NumFields(); i++ {
		if part, ok := fields.Field(i).Type().Underlying().(*types.Struct); ok && fields.Field(i).Embedded() {
			for j := 0; j < part.NumFields(); j++ {
				tracked[part.Field(j)] = true
			}
		}
	}
	token, _ := pass.Pkg.Scope().Lookup("journaled").(*types.TypeName)
	// is reports whether e is an obj or a pointer to one.
	is := func(e ast.Expr, obj *types.TypeName) bool {
		t := pass.TypesInfo.TypeOf(e)
		return obj != nil && t != nil && (t == obj.Type() || types.Identical(t, types.NewPointer(obj.Type())))
	}
	// under reports whether e selects into a value root matches: tx.W.users, s.domains, ...
	var under func(ast.Expr, func(ast.Expr) bool) bool
	under = func(e ast.Expr, root func(ast.Expr) bool) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return root(e) || ok && under(sel.X, root)
	}
	isTx := func(e ast.Expr) bool { return analysis.RCUArg(pass.TypesInfo.TypeOf(e), "Tx") != nil }
	isServer := func(e ast.Expr) bool { return is(e, server.Obj()) }
	takesToken := func(ft *ast.FuncType) bool {
		for _, p := range ft.Params.List {
			if is(p.Type, token) {
				return true
			}
		}
		return false
	}
	const msg = "%s in %s, which takes no journaled token: journal the record first and apply it in a function that takes the token"
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		inJournal := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "journal.go"
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			// check walks n, guarded when no enclosing function takes a token.
			var check func(n ast.Node, guarded bool)
			check = func(n ast.Node, guarded bool) {
				ast.Inspect(n, func(n ast.Node) bool {
					var writes []ast.Expr
					switch s := n.(type) {
					case *ast.FuncLit:
						check(s.Body, guarded && !takesToken(s.Type))
						return false
					case *ast.CompositeLit:
						if !inJournal && is(s, token) {
							pass.Reportf(s.Pos(), "journaled{...} built outside journal.go: only journaling or replaying a record mints the token")
						}
					case *ast.AssignStmt:
						writes = s.Lhs
					case *ast.IncDecStmt:
						writes = []ast.Expr{s.X}
					case *ast.CallExpr:
						if sel, ok := s.Fun.(*ast.SelectorExpr); ok && guarded && sel.Sel.Name == "Identify" && under(sel.X, isServer) {
							pass.Reportf(s.Pos(), msg, "Identify called on a Server field", fn.Name.Name)
						}
					}
					for _, lhs := range writes {
						for ix, ok := lhs.(*ast.IndexExpr); ok; ix, ok = lhs.(*ast.IndexExpr) {
							lhs = ix.X
						}
						if sel, ok := lhs.(*ast.SelectorExpr); ok && guarded && under(sel.X, isTx) {
							if field, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Var); tracked[field] {
								pass.Reportf(lhs.Pos(), msg, "state field "+field.Name()+" assigned through a *rcu.Tx", fn.Name.Name)
							}
						}
					}
					return true
				})
			}
			check(decl, fn != nil && !takesToken(fn.Type))
		}
	}
	return nil
}
