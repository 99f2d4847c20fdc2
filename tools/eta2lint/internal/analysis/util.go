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

// PublishedType finds the type of pkg that holds an rcu.Cell of a struct
// type — the server — and that struct type, the server's one declaration of
// its state, where the passes that know the state's shape read it. Both are
// nil if no type of pkg holds one.
func PublishedType(pkg *types.Package) (owner, state *types.Named) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, _ := scope.Lookup(name).(*types.TypeName)
		if tn == nil {
			continue
		}
		o, _ := tn.Type().(*types.Named)
		fields, ok := tn.Type().Underlying().(*types.Struct)
		for i := 0; o != nil && ok && i < fields.NumFields(); i++ {
			if t, _ := RCUArg(fields.Field(i).Type(), "Cell").(*types.Named); t != nil {
				if _, isStruct := t.Underlying().(*types.Struct); isStruct {
					return o, t
				}
			}
		}
	}
	return nil, nil
}
