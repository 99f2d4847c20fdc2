// Package load holds what the vet-protocol driver and the analysistest
// harness share for type-checking a package without any dependency beyond
// the standard library and the go toolchain itself. Dependencies are never
// re-parsed: their compiler export data comes from the vet config or from
// `go list -export`, which serves it from the build cache (compiling on
// demand, fully offline), and is read through go/importer.ForCompiler — the
// same reader the compiler uses.
package load

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
)

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// ExportImporter resolves imports from compiler export data files. Paths
// missing from the initial table are looked up with `go list -export` on
// demand — the path the analysistest harness takes for standard-library
// imports of testdata packages.
type ExportImporter struct {
	base types.ImporterFrom

	// Strict disables the `go list` fallback: a path missing from the
	// table is then an error. The vet-protocol driver sets it — there the
	// table is the unit's full declared dependency set, and a miss is a
	// config bug that must be loud.
	Strict bool

	mu    sync.Mutex
	files map[string]string
}

// NewExportImporter builds an importer over a path -> export-file table.
func NewExportImporter(fset *token.FileSet, files map[string]string) *ExportImporter {
	if files == nil {
		files = make(map[string]string)
	}
	e := &ExportImporter{files: files}
	e.base = importer.ForCompiler(fset, "gc", e.lookup).(types.ImporterFrom)
	return e
}

// Import implements types.Importer.
func (e *ExportImporter) Import(path string) (*types.Package, error) {
	return e.base.ImportFrom(path, "", 0)
}

// lookup opens the export data for one import path.
func (e *ExportImporter) lookup(path string) (io.ReadCloser, error) {
	e.mu.Lock()
	file, ok := e.files[path]
	e.mu.Unlock()
	if !ok {
		if e.Strict {
			return nil, fmt.Errorf("load: no export data for %q in unit config", path)
		}
		out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
		if err != nil {
			return nil, fmt.Errorf("load: no export data for %q: %w", path, err)
		}
		file = strings.TrimSpace(string(out))
		if file == "" {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		e.mu.Lock()
		e.files[path] = file
		e.mu.Unlock()
	}
	return os.Open(file)
}
