package experiments

import (
	"fmt"
	"strings"
)

// Runner is a named, self-contained experiment that renders its report as
// text.
type Runner struct {
	// ID is the registry key ("fig5", "table1", "ablation-decay", …).
	ID string
	// Title summarizes what the experiment reproduces.
	Title string
	// Run executes the experiment.
	Run func(Options) (string, error)
}

type renderer interface{ Render() string }

// experiment is one row of the table every view below reads: Registry and
// Lookup render run's result as text, RunTyped hands it back as it is.
type experiment struct {
	id, title string
	// datasets are the datasets a per-dataset experiment runs over, once
	// each; nil for an experiment that takes none (run then ignores its
	// dataset argument).
	datasets []string
	run      func(dataset string, o Options) (renderer, error)
}

// table lists every experiment, in the paper's order, followed by the
// design-choice ablations and extensions.
var table = []experiment{
	{"fig2", "Figure 2: observation-error distribution vs standard normal", nil,
		func(_ string, o Options) (renderer, error) { return Fig2(o) }},
	{"table1", "Table 1: chi-square normality non-rejection rates", nil,
		func(_ string, o Options) (renderer, error) { return Table1(o) }},
	{"fig4", "Figure 4: estimation error vs (alpha, gamma), all datasets", DatasetNames,
		func(name string, o Options) (renderer, error) { return Fig4(name, o) }},
	{"fig5", "Figure 5: estimation error per day, ETA2 vs baselines", DatasetNames,
		func(name string, o Options) (renderer, error) { return Fig5(name, o) }},
	{"fig6", "Figure 6: estimation error vs processing capability", DatasetNames,
		func(name string, o Options) (renderer, error) { return Fig6(name, o) }},
	{"fig7", "Figure 7: observation error vs user expertise (boxplots)", []string{"survey", "sfv"},
		func(name string, o Options) (renderer, error) { return Fig7(name, o) }},
	{"fig8", "Figure 8: robustness to non-normal observations", nil,
		func(_ string, o Options) (renderer, error) { return Fig8(o) }},
	{"fig9", "Figures 9 & 10: ETA2 vs ETA2-mc, error and cost", DatasetNames,
		func(name string, o Options) (renderer, error) { return Fig9And10(name, o) }},
	{"fig11", "Figure 11: expertise estimation error vs capability", nil,
		func(_ string, o Options) (renderer, error) { return Fig11(o) }},
	{"fig12", "Figure 12: CDF of MLE convergence iterations", nil,
		func(_ string, o Options) (renderer, error) { return Fig12(o) }},
	{"table2", "Table 2: users per task under max-quality allocation", []string{"synthetic"},
		func(name string, o Options) (renderer, error) { return Table2(name, o) }},
	{"ablation-secondpass", "Ablation: greedy second pass under heavy-tailed task sizes", nil,
		func(_ string, o Options) (renderer, error) { return AblationSecondPass(o) }},
	{"ablation-expertise", "Ablation: per-domain expertise vs global reliability", nil,
		func(_ string, o Options) (renderer, error) { return AblationExpertiseAware(o) }},
	{"ablation-pairword", "Ablation: pair-word embeddings vs bag-of-words clustering", nil,
		func(_ string, o Options) (renderer, error) { return AblationPairWord(o) }},
	{"ext-adversarial", "Extension: robustness to colluding users", nil,
		func(_ string, o Options) (renderer, error) { return Adversarial(o) }},
	{"ext-dropout", "Extension: resilience to non-responsive users", nil,
		func(_ string, o Options) (renderer, error) { return Dropout(o) }},
	{"ablation-decay", "Ablation: decay factor under expertise drift", nil,
		func(_ string, o Options) (renderer, error) { return AblationDecay(o) }},
}

// results runs the experiment once per dataset (once in all, with no
// dataset, when it takes none), in order.
func (e experiment) results(o Options) ([]renderer, error) {
	if e.datasets == nil {
		r, err := e.run("", o)
		return []renderer{r}, err
	}
	out := make([]renderer, len(e.datasets))
	for i, name := range e.datasets {
		var err error
		if out[i], err = e.run(name, o); err != nil {
			return nil, fmt.Errorf("dataset %s: %w", name, err)
		}
	}
	return out, nil
}

// text renders the report: a per-dataset experiment's is its datasets'
// reports, a blank line after each.
func (e experiment) text(o Options) (string, error) {
	rs, err := e.results(o)
	if err != nil {
		return "", err
	}
	if e.datasets == nil {
		return rs[0].Render(), nil
	}
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Render())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// typed returns the structured result: the result struct itself, or for an
// experiment over several datasets a map from dataset name to it.
func (e experiment) typed(o Options) (any, error) {
	rs, err := e.results(o)
	if err != nil {
		return nil, err
	}
	if len(rs) == 1 {
		return rs[0], nil
	}
	out := make(map[string]any, len(rs))
	for i, name := range e.datasets {
		out[name] = rs[i]
	}
	return out, nil
}

// Registry returns every experiment, in table order.
func Registry() []Runner {
	out := make([]Runner, len(table))
	for i, e := range table {
		out[i] = Runner{ID: e.id, Title: e.title, Run: e.text}
	}
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// RunTyped executes an experiment by ID and returns its structured result
// (the same typed structs the Render methods print), for machine-readable
// output such as eta2bench -format json.
func RunTyped(id string, opts Options) (any, error) {
	for _, e := range table {
		if e.id == id {
			return e.typed(opts)
		}
	}
	return nil, fmt.Errorf("experiments: no experiment %q", id)
}
