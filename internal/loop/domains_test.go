package loop

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"eta2/internal/cluster"
	"eta2/internal/core"
	"eta2/internal/dataset"
	"eta2/internal/embedding"
	"eta2/internal/semantic"
)

func identify(t *testing.T, d *Domains, first core.TaskID, descriptions ...string) ([]core.DomainID, cluster.Update) {
	t.Helper()
	ids := make([]core.TaskID, len(descriptions))
	vecs := make([]semantic.TaskVector, len(descriptions))
	for i, desc := range descriptions {
		var err error
		if vecs[i], err = d.Vectorize(desc); err != nil {
			t.Fatal(err)
		}
		ids[i] = first + core.TaskID(i)
	}
	domainOf := make([]core.DomainID, int(first)+len(descriptions))
	up, err := d.Identify(ids, vecs, domainOf, func(_, _ core.DomainID) {})
	if err != nil {
		t.Fatal(err)
	}
	return domainOf, up
}

// A restored identifier must place later tasks exactly where the original
// does, whichever batch boundary it was saved at: its clusterer measures
// distances over its own copy of the vectors, and the per-domain statistics
// it rebuilds from them are the bits the original carried. The script is the
// golden server's, whose third batch merges two established domains.
func TestDomainsRestoreContinuesIdentically(t *testing.T) {
	emb := embedding.NewHashEmbedder(16, 7)
	var batches [][]string
	for i, task := range dataset.SurveyLike(11).Tasks {
		if i%20 == 0 {
			batches = append(batches, nil)
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], task.Description)
	}
	run := func(d *Domains, from int) (states []DomainsState, assigned [][]core.DomainID, merges int) {
		for b := from; b < len(batches); b++ {
			domainOf, up := identify(t, d, core.TaskID(20*b), batches[b]...)
			assigned = append(assigned, domainOf)
			states = append(states, d.State())
			merges += len(up.Merges)
		}
		return states, assigned, merges
	}
	orig, err := NewDomains(emb, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	states, assigned, merges := run(orig, 0)
	if merges == 0 {
		t.Fatal("no established domains merged: the script no longer reaches the path")
	}
	for b := range states[:len(states)-1] {
		restored, err := RestoreDomains(states[b], emb)
		if err != nil {
			t.Fatal(err)
		}
		laterStates, laterAssigned, _ := run(restored, b+1)
		for k := range laterStates {
			if !reflect.DeepEqual(laterAssigned[k], assigned[b+1+k]) {
				t.Errorf("restored after batch %d: batch %d assigns %v, the original %v", b, b+1+k, laterAssigned[k], assigned[b+1+k])
			}
			if !reflect.DeepEqual(laterStates[k], states[b+1+k]) {
				t.Errorf("restored after batch %d: state after batch %d differs from the uninterrupted run's", b, b+1+k)
			}
		}
	}
}

// Eq. 2 between vectors of two dimensions is +Inf, d* follows, and γ·d* =
// +Inf merges every domain into one: such vectors are refused at both doors.
func TestDomainsRefuseAnotherDimension(t *testing.T) {
	orig, _ := NewDomains(embedding.NewHashEmbedder(16, 7), 0.5)
	identify(t, orig, 0, "What is the noise level at the train station?", "What is the retail price at the supermarket?")
	before := orig.State()

	// A data directory reopened with a model of another dimension.
	_, err := RestoreDomains(before, embedding.NewHashEmbedder(8, 7))
	if err == nil || !strings.Contains(err.Error(), "16") || !strings.Contains(err.Error(), "8") {
		t.Errorf("16-dimensional saved vectors under an 8-dimensional embedder: %v", err)
	}
	// Saved vectors that disagree with each other, with no embedder to say which is right.
	mixed := before
	mixed.Vectors = append([]semantic.TaskVector(nil), before.Vectors...)
	mixed.Vectors[1].Target = mixed.Vectors[1].Target[:8]
	if _, err := RestoreDomains(mixed, nil); err == nil {
		t.Error("saved vectors of dimensions 16 and 8 accepted")
	}

	other, _ := NewDomains(embedding.NewHashEmbedder(8, 7), 0.5)
	v, err := other.Vectorize("What is the noise level at the concert hall?")
	if err != nil {
		t.Fatal(err)
	}
	domainOf := make([]core.DomainID, 3)
	if _, err := orig.Identify([]core.TaskID{2}, []semantic.TaskVector{v}, domainOf, func(_, _ core.DomainID) {}); err == nil {
		t.Error("an 8-dimensional vector joined 16-dimensional ones")
	}
	if after := orig.State(); !reflect.DeepEqual(after, before) || !reflect.DeepEqual(domainOf, make([]core.DomainID, 3)) {
		t.Error("the refused batch left a mark")
	}
}

func TestDomainsWithoutEmbedder(t *testing.T) {
	var none *Domains
	if _, err := none.Vectorize("x"); !errors.Is(err, ErrNoEmbedder) {
		t.Errorf("nil identifier: %v", err)
	}
	orig, _ := NewDomains(embedding.NewHashEmbedder(8, 1), 0.5)
	identify(t, orig, 0, "What is the noise level at the train station?")
	st := orig.State()
	restored, err := RestoreDomains(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Vectorize("x"); !errors.Is(err, ErrNoEmbedder) {
		t.Errorf("restored without embedder: %v", err)
	}
	st.Tasks = nil
	if _, err := RestoreDomains(st, nil); err == nil {
		t.Error("state with one clustered item and no task ids accepted")
	}
}
