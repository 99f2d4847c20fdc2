package semantic

import (
	"errors"
	"fmt"

	"eta2/internal/embedding"
)

// TaskVector is the distributed-semantics representation of one task: the
// phrase embeddings of its Query and Target terms. The paper concatenates
// [V_Q, V_T]; keeping the halves separate is equivalent and lets Eq. 2 be
// computed without copying.
type TaskVector struct {
	Query  embedding.Vector
	Target embedding.Vector
}

// Vectorizer turns task descriptions into TaskVectors using an Embedder.
type Vectorizer struct {
	embedder embedding.Embedder
	fallback *embedding.HashEmbedder
}

// NewVectorizer wraps an embedder. Out-of-vocabulary phrases fall back to a
// deterministic hash embedding of the same dimensionality so every
// description gets *some* vector and clustering never loses tasks.
func NewVectorizer(e embedding.Embedder) *Vectorizer {
	return &Vectorizer{
		embedder: e,
		fallback: embedding.NewHashEmbedder(e.Dim(), 0x5eed),
	}
}

// ErrEmptyDescription is returned for blank descriptions.
var ErrEmptyDescription = errors.New("semantic: empty task description")

// Vectorize extracts the pair-word of the description and embeds both terms
// with the additive phrase model.
func (v *Vectorizer) Vectorize(description string) (TaskVector, error) {
	if description == "" {
		return TaskVector{}, ErrEmptyDescription
	}
	pair, err := ExtractPair(description)
	if err != nil {
		return TaskVector{}, fmt.Errorf("semantic: %q: %w", description, err)
	}
	q, err := v.embedPhrase(pair.Query)
	if err != nil {
		return TaskVector{}, fmt.Errorf("semantic: query of %q: %w", description, err)
	}
	t, err := v.embedPhrase(pair.Target)
	if err != nil {
		return TaskVector{}, fmt.Errorf("semantic: target of %q: %w", description, err)
	}
	return TaskVector{Query: q, Target: t}, nil
}

// embedPhrase composes the phrase with the trained embedder, falling back
// to hash vectors for fully out-of-vocabulary phrases.
func (v *Vectorizer) embedPhrase(words []string) (embedding.Vector, error) {
	vec, err := embedding.Phrase(v.embedder, words)
	if err == nil {
		return vec, nil
	}
	if errors.Is(err, embedding.ErrEmptyPhrase) {
		return embedding.Phrase(v.fallback, words)
	}
	return nil, err
}

// Distance implements Eq. 2 of the paper:
//
//	E(i,j) = ½·(‖V_Q^i − V_Q^j‖² + ‖V_T^i − V_T^j‖²)
func Distance(a, b TaskVector) float64 {
	return 0.5 * (a.Query.SquaredDistance(b.Query) + a.Target.SquaredDistance(b.Target))
}
