package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IsTestFile reports whether f was parsed from a _test.go file.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// RCUArg returns the type argument of t — or of what t points to — if t is
// the generic type name ("Cell" or "Tx") of an internal/rcu package, the
// server's publish cell, and nil otherwise.
func RCUArg(t types.Type, name string) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != name || n.Obj().Pkg() == nil || !strings.HasSuffix(n.Obj().Pkg().Path(), "internal/rcu") || n.TypeArgs().Len() != 1 {
		return nil
	}
	return n.TypeArgs().At(0)
}
