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

// PublishedType returns the struct type owner publishes behind a
// sync/atomic.Pointer field — the server's one declaration of its state, where
// the passes that know the state's shape read it — or nil.
func PublishedType(owner *types.Named) *types.Named {
	fields, ok := owner.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < fields.NumFields(); i++ {
		p, ok := fields.Field(i).Type().(*types.Named)
		if !ok || p.Obj().Pkg() == nil || p.Obj().Pkg().Path() != "sync/atomic" || p.Obj().Name() != "Pointer" || p.TypeArgs().Len() != 1 {
			continue
		}
		if t, ok := p.TypeArgs().At(0).(*types.Named); ok {
			if _, isStruct := t.Underlying().(*types.Struct); isStruct {
				return t
			}
		}
	}
	return nil
}
