// Package unitchecker implements the `go vet -vettool` protocol without
// golang.org/x/tools: cmd/go hands the tool a JSON config file describing
// one compilation unit (source files plus the export data of every
// dependency, already built by the go command), the tool type-checks the
// unit, runs its analyzers, writes the facts file cmd/go expects, and
// reports diagnostics on stderr with a non-zero exit.
//
// The protocol, as documented in x/tools' unitchecker:
//
//	tool -V=full         describe the executable for the build cache
//	tool -flags          describe the tool's flags in JSON
//	tool foo.cfg         analyze the unit described by foo.cfg
//
// Facts: dependency units are analyzed first (cmd/go schedules them with
// VetxOnly=true and caches their facts files), and the facts they export
// arrive here through PackageVetx — so an inter-procedural analyzer sees
// the effect summaries of everything the unit imports, exactly the way
// x/tools facts compose across compilation units. VetxOnly units run the
// full analysis with diagnostics suppressed: their job is producing
// facts, not findings.
package unitchecker

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"

	"eta2lint/internal/analysis"
	"eta2lint/internal/load"
)

// Config is the JSON unit description cmd/go writes for -vettool tools.
// Field names must match cmd/go's encoding (x/tools unitchecker.Config).
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Run analyzes the unit described by cfgPath and returns the process exit
// code: 0 clean, 1 operational error, 2 diagnostics reported.
func Run(cfgPath string, analyzers []*analysis.Analyzer) int {
	cfg, err := readConfig(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	diags, facts, fset, err := analyze(cfg, analyzers)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			_ = writeVetx(cfg, nil)
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := writeVetx(cfg, facts.exported); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if cfg.VetxOnly || len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer.Name)
	}
	return 2
}

func readConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("eta2lint: read config: %w", err)
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("eta2lint: parse config %s: %w", path, err)
	}
	if cfg.Compiler != "" && cfg.Compiler != "gc" {
		return nil, fmt.Errorf("eta2lint: unsupported compiler %q", cfg.Compiler)
	}
	return cfg, nil
}

// analyze parses and type-checks the unit, then runs the analyzers with
// dependency facts wired in.
func analyze(cfg *Config, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, *vetxFacts, *token.FileSet, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("eta2lint: %w", err)
		}
		files = append(files, f)
	}

	imp := newUnitImporter(fset, cfg)
	info := load.NewInfo()
	conf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("eta2lint: typecheck %s: %w", cfg.ImportPath, err)
	}
	facts := newVetxFacts(cfg)
	diags, err := analysis.RunAnalyzersFacts(analyzers, fset, files, pkg, info, facts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("eta2lint: %w", err)
	}
	return diags, facts, fset, nil
}

// vetxFacts implements analysis.Facts over the unit's PackageVetx table:
// reads lazily open dependency facts files, exports collect in memory
// until Run writes the unit's own vetx file.
type vetxFacts struct {
	files    map[string]string            // import path -> vetx file
	loaded   map[string]map[string][]byte // import path -> decoded facts
	exported map[string][]byte            // analyzer -> blob
}

func newVetxFacts(cfg *Config) *vetxFacts {
	// The standard library is outside the analysis universe by design
	// (Read answers "no facts" for it): the go command schedules its units
	// for facts all the same, so their vetx files are left unlisted.
	files := make(map[string]string, len(cfg.PackageVetx))
	for path, file := range cfg.PackageVetx {
		if !cfg.Standard[path] {
			files[path] = file
		}
	}
	// ImportMap translates source-level import paths to the canonical
	// package paths PackageVetx is keyed by — the same remapping the
	// export-data importer applies (see newUnitImporter).
	for src, canonical := range cfg.ImportMap {
		if src == canonical {
			continue
		}
		if file, ok := cfg.PackageVetx[canonical]; ok && !cfg.Standard[canonical] {
			files[src] = file
		}
	}
	return &vetxFacts{
		files:    files,
		loaded:   make(map[string]map[string][]byte),
		exported: make(map[string][]byte),
	}
}

func (v *vetxFacts) Read(analyzer, pkgPath string) []byte {
	byAnalyzer, ok := v.loaded[pkgPath]
	if !ok {
		file, listed := v.files[pkgPath]
		if !listed {
			// Outside the analysis universe (typically the standard
			// library): no facts, by design.
			v.loaded[pkgPath] = nil
			return nil
		}
		decoded, err := analysis.DecodeVetx(file)
		if err != nil {
			// A garbled dependency facts file degrades to "no facts"
			// rather than failing the whole unit: the dependency itself
			// was already analyzed (and its own diagnostics reported)
			// when its unit ran.
			decoded = nil
		}
		byAnalyzer = decoded
		v.loaded[pkgPath] = byAnalyzer
	}
	return byAnalyzer[analyzer]
}

func (v *vetxFacts) Export(analyzer string, data []byte) {
	v.exported[analyzer] = data
}

// newUnitImporter reads dependency export data from the files cmd/go
// listed in the config, honoring its import-path remapping.
func newUnitImporter(fset *token.FileSet, cfg *Config) types.Importer {
	files := make(map[string]string, len(cfg.PackageFile))
	for path, file := range cfg.PackageFile {
		files[path] = file
	}
	// ImportMap translates source-level import paths to the canonical
	// package paths PackageFile is keyed by.
	for src, canonical := range cfg.ImportMap {
		if src == canonical {
			continue
		}
		if file, ok := cfg.PackageFile[canonical]; ok {
			files[src] = file
		}
	}
	imp := load.NewExportImporter(fset, files)
	imp.Strict = true
	return imp
}

// writeVetx writes the facts file cmd/go caches for dependent units. It
// must exist even when no analyzer exported anything.
func writeVetx(cfg *Config, byAnalyzer map[string][]byte) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	if err := analysis.EncodeVetx(cfg.VetxOutput, byAnalyzer); err != nil {
		return fmt.Errorf("eta2lint: %w", err)
	}
	return nil
}
