// Package journalfirst holds journal-before-apply as a rule on types. The
// server mints an unexported token, journaled, only when it appends a record
// or replays one, and its apply methods take it, so an apply called before
// its record is journaled does not compile. This pass checks the rest: a
// Server method that assigns a persisted field (every field of the struct the
// published state embeds, read off the declaration) or calls Identify on what
// a Server field holds takes a journaled parameter, and a journaled{...}
// literal appears only in journal.go.
package journalfirst

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"eta2lint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "journalfirst",
	Doc:  "Server methods that assign persisted state take a journaled token, which only journal.go mints",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	server, _ := pass.Pkg.Scope().Lookup("Server").(*types.TypeName)
	if server == nil {
		return nil
	}
	state := analysis.PublishedType(server.Type().(*types.Named))
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
	// underServer reports whether e selects into a Server: s, s.w, ...
	var underServer func(ast.Expr) bool
	underServer = func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return is(e, server) || ok && underServer(sel.X)
	}
	const msg = "%s in %s, which takes no journaled token: journal the record first and apply it in a method that takes the token"
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		inJournal := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "journal.go"
		for _, decl := range f.Decls {
			// guarded: a Server method without a journaled parameter.
			fn, _ := decl.(*ast.FuncDecl)
			guarded := fn != nil && fn.Recv != nil && is(fn.Recv.List[0].Type, server)
			for i := 0; guarded && i < len(fn.Type.Params.List); i++ {
				guarded = !is(fn.Type.Params.List[i].Type, token)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				var writes []ast.Expr
				switch s := n.(type) {
				case *ast.CompositeLit:
					if !inJournal && is(s, token) {
						pass.Reportf(s.Pos(), "journaled{...} built outside journal.go: only journaling or replaying a record mints the token")
					}
				case *ast.AssignStmt:
					writes = s.Lhs
				case *ast.IncDecStmt:
					writes = []ast.Expr{s.X}
				case *ast.CallExpr:
					if sel, ok := s.Fun.(*ast.SelectorExpr); ok && guarded && sel.Sel.Name == "Identify" && underServer(sel.X) {
						pass.Reportf(s.Pos(), msg, "Identify called on a Server field", fn.Name.Name)
					}
				}
				for _, lhs := range writes {
					for ix, ok := lhs.(*ast.IndexExpr); ok; ix, ok = lhs.(*ast.IndexExpr) {
						lhs = ix.X
					}
					if sel, ok := lhs.(*ast.SelectorExpr); ok && guarded && underServer(sel.X) {
						if field, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Var); tracked[field] {
							pass.Reportf(lhs.Pos(), msg, "Server."+field.Name()+" assigned", fn.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
	return nil
}
