// Package allocdiscipline guards the zero-alloc ingest discipline (PR 8)
// in the packages the observation hot path crosses: the root eta2 server,
// internal/state (its apply and its record decoders), internal/wal, and
// internal/httpapi. Two allocation patterns defeat the
// pooled-buffer work silently and are therefore banned by default:
//
//   - string([]byte) conversions: each one copies the bytes onto the
//     heap. On a decode path that runs per request this turns "zero
//     alloc" into "one alloc per field". Conversions compared directly
//     against a string (==, !=, switch case) are exempt — the compiler
//     elides the copy there.
//
//   - make(map[...]...) inside a function: a map born per call is a
//     hidden allocation plus hashing overhead; hot paths should reuse
//     structures carried by the server state or a pool.
//
// Setup, recovery, and copy-on-write mutation paths legitimately build
// maps and strings; annotate those sites (or their whole function) with
//
//	//eta2:allocdiscipline-ok <why this site is not per-request>
//
// so every exception carries its justification in the diff.
package allocdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"eta2lint/internal/analysis"
)

// ingestPackages are the import paths the observation ingest path
// traverses: HTTP decode -> server -> state apply -> WAL append.
var ingestPackages = regexp.MustCompile(`^eta2(/internal/(wal|httpapi|state))?$`)

var Analyzer = &analysis.Analyzer{
	Name: "allocdiscipline",
	Doc:  "forbid per-call string([]byte) conversions and map allocations in ingest-path packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !ingestPackages.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		exempt := comparisonOperands(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || pass.FuncSuppressed(fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkStringConversion(pass, call, exempt)
				checkMakeMap(pass, call)
				return true
			})
		}
	}
	return nil
}

// comparisonOperands collects call expressions whose result feeds a
// string comparison directly: `string(b) == s`, `s != string(b)`, and
// `switch string(b) { ... }` (including its case values). The compiler
// performs these without copying, so they are not allocations.
func comparisonOperands(f *ast.File) map[ast.Expr]bool {
	exempt := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				exempt[n.X] = true
				exempt[n.Y] = true
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				exempt[n.Tag] = true
				for _, stmt := range n.Body.List {
					if cc, ok := stmt.(*ast.CaseClause); ok {
						for _, v := range cc.List {
							exempt[v] = true
						}
					}
				}
			}
		}
		return true
	})
	return exempt
}

func checkStringConversion(pass *analysis.Pass, call *ast.CallExpr, exempt map[ast.Expr]bool) {
	if len(call.Args) != 1 || exempt[ast.Expr(call)] {
		return
	}
	// A conversion's Fun is a type expression denoting string.
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Kind() != types.String {
		return
	}
	argType := pass.TypesInfo.TypeOf(call.Args[0])
	if argType == nil {
		return
	}
	slice, ok := argType.Underlying().(*types.Slice)
	if !ok {
		return
	}
	if elem, ok := slice.Elem().Underlying().(*types.Basic); !ok || elem.Kind() != types.Byte {
		return
	}
	pass.Reportf(call.Pos(), "string([]byte) conversion in ingest-path package copies per call; keep bytes or annotate //eta2:allocdiscipline-ok")
}

func checkMakeMap(pass *analysis.Pass, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return
	}
	// Only the builtin make, not a local function named make.
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	t := pass.TypesInfo.TypeOf(call.Args[0])
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); isMap {
		pass.Reportf(call.Pos(), "map allocated inside a function in an ingest-path package; reuse state/pooled structures or annotate //eta2:allocdiscipline-ok")
	}
}
