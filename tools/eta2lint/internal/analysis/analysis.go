// Package analysis is a deliberately small, dependency-free subset of the
// golang.org/x/tools/go/analysis API: enough structure to write modular
// AST+types analyzers, run them from a multichecker binary or the go vet
// -vettool protocol, and test them with the analysistest-style harness in
// this module. The shape (Analyzer, Pass, Diagnostic) mirrors x/tools so
// the analyzers port verbatim if the dependency ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
	// Suppressors are the //eta2: directive names that silence this
	// analyzer's diagnostics at a site (e.g. "nondeterministic-ok").
	// Every analyzer also honors "<Name>-ok".
	Suppressors []string
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// Pass carries one fully type-checked package through an analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives diagnostics that survived directive suppression.
	Report func(Diagnostic)

	// facts is the inter-procedural side channel (nil when the driver
	// runs without facts support); see facts.go.
	facts Facts

	directives map[*ast.File]map[int][]string // line -> directive names
}

// ReadFact returns the blob this analyzer exported for a dependency
// package, or nil when the package is outside the analysis universe
// (standard library, facts-less driver). Analyzers use a nil return to
// tell "no summaries available" apart from "summaries say nothing".
func (p *Pass) ReadFact(pkgPath string) []byte {
	if p.facts == nil {
		return nil
	}
	return p.facts.Read(p.Analyzer.Name, pkgPath)
}

// ExportFact publishes the current package's blob for this analyzer so
// downstream packages can ReadFact it. No-op on facts-less drivers.
func (p *Pass) ExportFact(data []byte) {
	if p.facts == nil {
		return
	}
	p.facts.Export(p.Analyzer.Name, data)
}

// Reportf reports a diagnostic at pos unless an //eta2: directive on the
// same line — or alone on the line above — suppresses this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer})
}

// suppressed reports whether a directive covers the line of pos.
func (p *Pass) suppressed(pos token.Pos) bool {
	file := p.fileFor(pos)
	if file == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	dirs := p.fileDirectives(file)
	for _, l := range [2]int{line, line - 1} {
		for _, name := range dirs[l] {
			if p.matchesSuppressor(name) {
				return true
			}
		}
	}
	return false
}

// SuppressedAt exposes the directive check so analyzers with non-line
// granularity (e.g. per-function exemptions) can consult it directly.
func (p *Pass) SuppressedAt(pos token.Pos) bool { return p.suppressed(pos) }

// FuncSuppressed reports whether fn's doc comment (or the line holding
// `func`) carries a directive suppressing this analyzer — the way to
// exempt a whole function rather than a single statement.
func (p *Pass) FuncSuppressed(fn *ast.FuncDecl) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if name, ok := ParseDirective(c.Text); ok && p.matchesSuppressor(name) {
				return true
			}
		}
	}
	return p.suppressed(fn.Pos())
}

func (p *Pass) matchesSuppressor(name string) bool {
	if name == p.Analyzer.Name+"-ok" {
		return true
	}
	for _, s := range p.Analyzer.Suppressors {
		if name == s {
			return true
		}
	}
	return false
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// fileDirectives lazily indexes the //eta2: directives of one file by the
// line they end on.
func (p *Pass) fileDirectives(f *ast.File) map[int][]string {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]string)
	}
	if d, ok := p.directives[f]; ok {
		return d
	}
	d := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if name, ok := ParseDirective(c.Text); ok {
				line := p.Fset.Position(c.Pos()).Line
				d[line] = append(d[line], name)
			}
		}
	}
	p.directives[f] = d
	return d
}

// RunAnalyzersFacts executes each analyzer over the package and returns the
// surviving diagnostics sorted by position. facts is the inter-procedural
// channel: each analyzer reads the blobs it exported for the package's
// dependencies and exports one for this package.
func RunAnalyzersFacts(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, facts Facts) ([]Diagnostic, error) {

	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { out = append(out, d) },
			facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}
