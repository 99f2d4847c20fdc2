package loop

import (
	"errors"
	"reflect"
	"testing"

	"eta2/internal/core"
	"eta2/internal/embedding"
	"eta2/internal/semantic"
)

func identify(t *testing.T, d *Domains, first core.TaskID, descriptions ...string) map[core.TaskID]core.DomainID {
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
	domainOf := make(map[core.TaskID]core.DomainID)
	if _, err := d.Identify(ids, vecs, domainOf, func(_, _ core.DomainID) {}); err != nil {
		t.Fatal(err)
	}
	return domainOf
}

// A restored identifier must place later tasks exactly where the original
// does: its clusterer measures distances over its own copy of the vectors.
func TestDomainsRestoreContinuesIdentically(t *testing.T) {
	emb := embedding.NewHashEmbedder(16, 7)
	orig, err := NewDomains(emb, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	identify(t, orig, 0, "What is the noise level at the train station?", "What is the retail price at the supermarket?")
	restored, err := RestoreDomains(orig.State(), emb)
	if err != nil {
		t.Fatal(err)
	}
	next := []string{"What is the noise level at the concert hall?", "What is the gas price at the gas station?"}
	if a, b := identify(t, orig, 2, next...), identify(t, restored, 2, next...); !reflect.DeepEqual(a, b) {
		t.Errorf("restored identifier assigns %v, the original %v", b, a)
	}
	if a, b := orig.State(), restored.State(); !reflect.DeepEqual(a, b) {
		t.Error("states diverge after the same batch")
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
