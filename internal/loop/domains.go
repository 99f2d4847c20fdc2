// Package loop holds the one body of every stage of the paper's per-time-step
// loop (Figure 1): identify the domains of described tasks, build the
// allocation problem, run Algorithm 2's collect-and-re-estimate side, and
// close the step. eta2.Server wraps validation, journaling, copy-on-write and
// publication around these bodies; simulation.Run wraps datasets, the RNG and
// metric collection around the same ones — so the numbers the experiments
// report come from the code that is served.
package loop

import (
	"errors"
	"fmt"

	"eta2/internal/cluster"
	"eta2/internal/core"
	"eta2/internal/embedding"
	"eta2/internal/semantic"
)

// Domains identifies the expertise domain of described tasks (Sec. 3): it
// owns the pair-word vectorizer, the vector of every described task, and the
// dynamic clusterer over them, whose distance reads those vectors. Item i of
// the clusterer is the i-th described task ever added.
type Domains struct {
	vectorizer *semantic.Vectorizer // nil: restored without an embedder
	dim        int                  // of V_Q and of V_T; 0 until an embedder or a vector sets it
	vectors    []semantic.TaskVector
	tasks      []core.TaskID
	engine     *cluster.Engine
}

// DomainsState is the serializable form of a Domains. Vectors and Tasks are
// append-only prefixes shared with the live identifier; Cluster is a copy.
type DomainsState struct {
	Cluster cluster.EngineState
	Vectors []semantic.TaskVector
	Tasks   []core.TaskID
}

// NewDomains creates an empty identifier that embeds with e and clusters
// with termination parameter gamma.
func NewDomains(e embedding.Embedder, gamma float64) (*Domains, error) {
	d := &Domains{vectorizer: semantic.NewVectorizer(e), dim: e.Dim()}
	return d, d.bind(gamma, nil)
}

// RestoreDomains rebuilds an identifier from its state. The saved vectors
// are reused as they are; e — nil for none — only embeds tasks added later,
// so it must have the dimension the saved vectors have: Eq. 2 between
// vectors of two dimensions is +Inf, and a d* of +Inf merges every domain.
func RestoreDomains(st DomainsState, e embedding.Embedder) (*Domains, error) {
	if n := st.Cluster.NItems; len(st.Vectors) != n || len(st.Tasks) != n {
		return nil, fmt.Errorf("loop: %d vectors / %d task ids for %d clustered items", len(st.Vectors), len(st.Tasks), n)
	}
	d := &Domains{vectors: st.Vectors, tasks: st.Tasks}
	if e != nil {
		d.vectorizer, d.dim = semantic.NewVectorizer(e), e.Dim()
	}
	if err := d.checkDim("saved", st.Vectors); err != nil {
		return nil, err
	}
	return d, d.bind(0, &st.Cluster)
}

// checkDim refuses vectors whose halves are not all of the identifier's
// dimension, which the first vector sets when no embedder has.
func (d *Domains) checkDim(what string, vectors []semantic.TaskVector) error {
	dim := d.dim
	for i, v := range vectors {
		if dim == 0 {
			dim = len(v.Query)
		}
		if len(v.Query) != dim || len(v.Target) != dim {
			return fmt.Errorf("loop: %s task vector %d has dimension %d (query) / %d (target), not the %d of the embedder and of the task vectors so far",
				what, i, len(v.Query), len(v.Target), dim)
		}
	}
	d.dim = dim
	return nil
}

// bind creates the clusterer — fresh, or from a saved state — over this
// identifier's own vectors: Eq. 2 between pairs, [V_Q, V_T] as coordinates.
func (d *Domains) bind(gamma float64, saved *cluster.EngineState) (err error) {
	dist := func(a, b int) float64 { return semantic.Distance(d.vectors[a], d.vectors[b]) }
	coords := func(item int, buf []float64) []float64 {
		return append(append(buf, d.vectors[item].Query...), d.vectors[item].Target...)
	}
	if saved == nil {
		d.engine, err = cluster.NewEuclidean(gamma, dist, coords)
	} else {
		d.engine, err = cluster.RestoreEuclidean(*saved, dist, coords)
	}
	return err
}

// State exports the identifier.
func (d *Domains) State() DomainsState {
	return DomainsState{Cluster: d.engine.State(), Vectors: d.vectors, Tasks: d.tasks}
}

// Engine exposes the clusterer for read-only inspection.
func (d *Domains) Engine() *cluster.Engine { return d.engine }

// ErrNoEmbedder is returned when a description is to be vectorized by an
// identifier that has no embedder.
var ErrNoEmbedder = errors.New("loop: described tasks require an embedder")

// Vectorize embeds a task description without changing the identifier, so a
// caller can reject a bad batch before it commits to anything. A nil
// identifier has no embedder.
func (d *Domains) Vectorize(description string) (semantic.TaskVector, error) {
	if d == nil || d.vectorizer == nil {
		return semantic.TaskVector{}, ErrNoEmbedder
	}
	return d.vectorizer.Vectorize(description)
}

// Identify adds described tasks with their vectors and re-clusters. Every
// described task's current domain — old tasks move when clusters merge — is
// written into domainOf, the per-task column indexed by task id, which must
// already reach every described task; each merge of two established domains
// is reported to merge (truth.Store.MergeDomains folds the expertise,
// Sec. 4.2). A batch with a vector of another dimension than the tasks before
// it is refused whole, before anything is added.
func (d *Domains) Identify(tasks []core.TaskID, vectors []semantic.TaskVector,
	domainOf []core.DomainID, merge func(into, from core.DomainID)) (cluster.Update, error) {
	if err := d.checkDim("new", vectors); err != nil {
		return cluster.Update{}, err
	}
	d.vectors = append(d.vectors, vectors...)
	d.tasks = append(d.tasks, tasks...)
	up, err := d.engine.AddItems(len(tasks))
	if err != nil {
		return cluster.Update{}, err
	}
	for _, m := range up.Merges {
		merge(m.Into, m.From)
	}
	for item, dom := range up.Assigned {
		domainOf[d.tasks[item]] = dom
	}
	return up, nil
}
