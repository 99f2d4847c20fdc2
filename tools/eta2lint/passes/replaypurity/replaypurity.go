// Package replaypurity proves at compile time that WAL replay is
// deterministic: every function transitively reachable from a replay or
// apply root must not read wall-clock time, draw randomness, iterate a
// map outside sortedKeys helpers, spawn goroutines, consult the
// environment or scheduler, or select over channels. Bit-identical
// replay is the foundation of the journal/snapshot design (PR 2) and of
// follower convergence (PR 7) — one time.Now or map-order dependency in
// the apply path silently forks replicas.
//
// Roots are recognized by name, per package (rootNames: the serving
// package's record handlers, the state package's decoders and Replay), or by
// an explicit `//eta2:replay-root` directive on the function. In each of
// those packages every name-keyed root must resolve to a declaration: a
// refactor that renames a root fails the gate instead of passing it
// vacuously. The analysis
// is inter-procedural across packages: effect summaries travel as
// analysis facts (see internal/callgraph), so a violation buried two
// modules deep is reported at the local call edge that reaches it, with
// the full path in the message.
//
// Escape hatch, for audited sites only:
//
//	//eta2:replaypurity-ok <why this cannot affect replayed state>
//
// On a `go` statement the directive additionally prunes the spawned
// subtree — the annotation vouches for the detached work. On a function
// declaration it exempts the whole function and everything it calls.
// The pre-existing //eta2:nondeterministic-ok map-range annotations are
// honored too.
package replaypurity

import (
	"go/ast"
	"slices"
	"sort"
	"strings"

	"eta2lint/internal/analysis"
	"eta2lint/internal/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name:        "replaypurity",
	Doc:         "forbid nondeterminism (time, rand, map order, goroutines, env, select) in code reachable from replay/apply roots",
	Suppressors: []string{"nondeterministic-ok"},
	Run:         run,
}

// rootNames are the replay/apply entry points recognized by name, keyed by
// the package that declares them.
var rootNames = map[string][]string{
	"eta2":                {"applyEvent", "applyRecord", "restoreServer"},
	"eta2/internal/state": {"Decode", "DecodeEvent", "Replay"},
}

func isRoot(pkg string, decl *ast.FuncDecl) bool {
	if slices.Contains(rootNames[pkg], decl.Name.Name) {
		return true
	}
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if n, ok := analysis.ParseDirective(c.Text); ok && n == "replay-root" {
				return true
			}
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	g, err := callgraph.Analyze(pass)
	if err != nil {
		return err
	}

	reportMissingRoots(pass, g)
	var roots []string
	for name, decl := range g.LocalDecls {
		if isRoot(pass.Pkg.Path(), decl) && g.Func(name) != nil {
			roots = append(roots, name)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	sort.Strings(roots)

	// BFS from the roots with parent tracking, so a violation found deep
	// in the graph can name the chain that reaches it.
	from := make(map[string]edgeIn)
	rootOf := make(map[string]string)
	var queue []string
	for _, r := range roots {
		if _, seen := rootOf[r]; seen {
			continue
		}
		rootOf[r] = r
		queue = append(queue, r)
	}

	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fs := g.Func(fn)
		if fs == nil {
			continue // outside the analysis universe (stdlib etc.)
		}
		for _, eff := range fs.Effects {
			report(pass, g, fn, eff, from, rootOf)
		}
		for _, c := range fs.Calls {
			for _, target := range expand(g, c.Callee) {
				if _, seen := rootOf[target]; seen {
					continue
				}
				rootOf[target] = rootOf[fn]
				from[target] = edgeIn{parent: fn, call: c}
				queue = append(queue, target)
			}
		}
	}
	return nil
}

// reportMissingRoots flags every rootNames entry no function in the
// package answers to, at the package clause of its first non-test file.
func reportMissingRoots(pass *analysis.Pass, g *callgraph.Graph) {
	declared := make(map[string]bool, len(g.LocalDecls))
	for _, decl := range g.LocalDecls {
		declared[decl.Name.Name] = true
	}
	var anchor *ast.File
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		if anchor == nil || pass.Fset.File(f.Pos()).Name() < pass.Fset.File(anchor.Pos()).Name() {
			anchor = f
		}
	}
	if anchor == nil {
		return
	}
	for _, name := range rootNames[pass.Pkg.Path()] {
		if !declared[name] {
			pass.Reportf(anchor.Package, "replay determinism: replay root %s is not declared in package %s; update replaypurity.rootNames with the rename, or the replay path goes unchecked", name, pass.Pkg.Path())
		}
	}
}

// expand resolves an interface method through the graph's binds; a
// concrete callee resolves to itself.
func expand(g *callgraph.Graph, callee string) []string {
	if impls := g.Impls(callee); len(impls) > 0 {
		if g.Func(callee) != nil {
			return append([]string{callee}, impls...)
		}
		return impls
	}
	return []string{callee}
}

// edgeIn records how BFS first reached a function: the calling function
// and the call edge taken.
type edgeIn struct {
	parent string
	call   callgraph.Call
}

// report places the diagnostic. A local effect reports at its own
// position; an effect inside an imported package reports at the last
// local call site on the chain, with the path and the remote position
// spelled out in the message.
func report(pass *analysis.Pass, g *callgraph.Graph, fn string, eff callgraph.Effect,
	from map[string]edgeIn, rootOf map[string]string) {

	root := rootOf[fn]
	if eff.TokPos.IsValid() {
		pass.Reportf(eff.TokPos, "replay determinism: %s in %s (reachable from replay root %s)",
			eff.Detail, fn, root)
		return
	}
	// Walk back toward the root until a call edge with a real position —
	// the local edge where the chain leaves the package under analysis.
	chain := []string{fn}
	cur := fn
	for {
		in, ok := from[cur]
		if !ok {
			return // effect in an unreachable summary; nothing to anchor on
		}
		chain = append([]string{in.parent}, chain...)
		if in.call.TokPos.IsValid() {
			pass.Reportf(in.call.TokPos,
				"replay determinism: call into %s reaches %s at %s (path %s)",
				chain[1], eff.Detail, eff.Pos, strings.Join(chain, " -> "))
			return
		}
		cur = in.parent
	}
}
