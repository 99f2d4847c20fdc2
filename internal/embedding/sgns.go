package embedding

import (
	"errors"
	"math"

	"eta2/internal/stats"
)

// TrainConfig holds the skip-gram-with-negative-sampling hyperparameters.
type TrainConfig struct {
	// Dim is the embedding dimensionality (default 32).
	Dim int
	// Window is the maximum context window radius (default 4).
	Window int
	// Negatives is the number of negative samples per positive pair
	// (default 5).
	Negatives int
	// Epochs is the number of passes over the corpus (default 5).
	Epochs int
	// LearningRate is the initial SGD step size, linearly decayed to 10% of
	// its initial value over training (default 0.05).
	LearningRate float64
	// SubsampleThreshold is the word2vec frequent-word subsampling
	// threshold t (word2vec uses 1e-3). Zero, the default, disables
	// subsampling.
	SubsampleThreshold float64
	// Seed makes training deterministic.
	Seed int64
}

func (c *TrainConfig) applyDefaults() {
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.Negatives <= 0 {
		c.Negatives = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
}

// Model is a trained skip-gram embedding model.
type Model struct {
	vocab *Vocabulary
	dim   int
	// in holds the input ("word") vectors — the embeddings exposed to
	// callers. out holds the output ("context") vectors used only during
	// training. Train lays each out as one row-major []float64; in[i] and
	// out[i] are views of row i.
	in  []Vector
	out []Vector
}

var _ Embedder = (*Model)(nil)

// ErrEmptyCorpus is returned when training on a corpus with no tokens.
var ErrEmptyCorpus = errors.New("embedding: cannot train on an empty corpus")

// Train learns SGNS embeddings over the tokenized sentences. Training is
// deterministic for a fixed config.
func Train(sentences [][]string, cfg TrainConfig) (*Model, error) {
	cfg.applyDefaults()

	vocab := NewVocabulary()
	for _, s := range sentences {
		vocab.AddSentence(s)
	}
	if vocab.Total() == 0 {
		return nil, ErrEmptyCorpus
	}
	vocab.BuildNegativeTable(vocab.Size() * 32)

	rng := stats.NewRNG(cfg.Seed)
	m := &Model{vocab: vocab, dim: cfg.Dim}
	m.in = rows(vocab.Size(), cfg.Dim)
	m.out = rows(vocab.Size(), cfg.Dim)
	initScale := 0.5 / float64(cfg.Dim)
	for _, vi := range m.in {
		for d := range vi {
			vi[d] = rng.Uniform(-initScale, initScale)
		}
	}

	// Encode sentences once.
	encoded := make([][]int, 0, len(sentences))
	for _, s := range sentences {
		ids := make([]int, 0, len(s))
		for _, w := range s {
			if id, ok := vocab.ID(w); ok {
				ids = append(ids, id)
			}
		}
		if len(ids) > 1 {
			encoded = append(encoded, ids)
		}
	}
	if len(encoded) == 0 {
		return nil, ErrEmptyCorpus
	}

	totalSteps := cfg.Epochs * len(encoded)
	step := 0
	negs := make([]int, cfg.Negatives)
	grad := make(Vector, cfg.Dim)
	for range cfg.Epochs {
		for _, sent := range encoded {
			lr := cfg.LearningRate * (1 - 0.9*float64(step)/float64(totalSteps))
			step++
			m.trainSentence(sent, cfg, lr, rng, negs, grad)
		}
	}
	return m, nil
}

// rows returns n zero vectors of dim coordinates, views of one row-major
// slice, each capped so an append cannot reach its neighbour.
func rows(n, dim int) []Vector {
	flat := make(Vector, n*dim)
	out := make([]Vector, n)
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// trainSentence runs one SGD pass over a single sentence. negs and grad are
// scratch: one slot per negative sample, one per coordinate.
func (m *Model) trainSentence(sent []int, cfg TrainConfig, lr float64, rng *stats.RNG, negs []int, grad Vector) {
	for pos, center := range sent {
		if cfg.SubsampleThreshold > 0 &&
			rng.Float64() > m.vocab.KeepProbability(center, cfg.SubsampleThreshold) {
			continue
		}
		// Dynamic window size, as in word2vec.
		win := 1 + rng.Intn(cfg.Window)
		lo := max(0, pos-win)
		hi := min(len(sent), pos+win+1)
		for cpos := lo; cpos < hi; cpos++ {
			if cpos == pos {
				continue
			}
			m.trainPair(center, sent[cpos], lr, rng, negs, grad)
		}
	}
}

// trainPair applies one positive update and len(negs) negative updates.
// The negatives are drawn first — a draw never depended on a model value —
// so the pair's target rows are known before the first dot product.
func (m *Model) trainPair(center, context int, lr float64, rng *stats.RNG, negs []int, grad Vector) {
	for k := range negs {
		negs[k] = m.vocab.SampleNegative(rng.Float64())
	}
	if len(negs) == 5 && distinctRows(context, negs) {
		m.trainPairFused(center, context, negs, lr)
		return
	}
	m.trainPairSequential(center, context, negs, lr, grad)
}

// distinctRows reports whether context and negs name len(negs)+1 different
// rows of out.
func distinctRows(context int, negs []int) bool {
	for k, t := range negs {
		if t == context {
			return false
		}
		for _, u := range negs[:k] {
			if t == u {
				return false
			}
		}
	}
	return true
}

// trainPairSequential is the definition of a pair's update: the samples one
// after another, each dot product reading what the samples before it wrote.
// It serves the pairs a negative of which repeats a row or is the context
// (whose second dot must see the first update; a negative that is the
// context is skipped), every Negatives other than 5, and the bit-identity
// test as the reference for trainPairFused.
func (m *Model) trainPairSequential(center, context int, negs []int, lr float64, grad Vector) {
	vIn := m.in[center]
	for d := range grad {
		grad[d] = 0
	}
	// Positive sample (label 1) plus negative samples (label 0).
	for k := 0; k <= len(negs); k++ {
		var target int
		var label float64
		if k == 0 {
			target, label = context, 1
		} else {
			target = negs[k-1]
			if target == context {
				continue
			}
			label = 0
		}
		vOut := m.out[target]
		g := (label - sigmoid(vIn.Dot(vOut))) * lr
		for d := range grad {
			grad[d] += g * vOut[d]
		}
		for d := range vOut {
			vOut[d] += g * vIn[d]
		}
	}
	for d := range vIn {
		vIn[d] += grad[d]
	}
}

// trainPairFused is trainPairSequential for five negatives when
// distinctRows holds: no sample reads a row another one writes, so the six
// dot products run as independent left-to-right sums in one pass over the
// coordinates, and a second pass updates the six rows and vIn with the
// coordinate's gradient in a register. Every sum adds in the order the
// sequential body does — zero first, then sample 0, 1, … — so the two
// agree to the last bit (0 + x is not x when x is −0).
func (m *Model) trainPairFused(center, context int, negs []int, lr float64) {
	vIn := m.in[center]
	n := len(vIn)
	o0, o1, o2 := m.out[context][:n], m.out[negs[0]][:n], m.out[negs[1]][:n]
	o3, o4, o5 := m.out[negs[2]][:n], m.out[negs[3]][:n], m.out[negs[4]][:n]
	var s0, s1, s2, s3, s4, s5 float64
	for d, x := range vIn {
		s0 += x * o0[d]
		s1 += x * o1[d]
		s2 += x * o2[d]
		s3 += x * o3[d]
		s4 += x * o4[d]
		s5 += x * o5[d]
	}
	g0 := (1 - sigmoid(s0)) * lr
	g1 := (0 - sigmoid(s1)) * lr
	g2 := (0 - sigmoid(s2)) * lr
	g3 := (0 - sigmoid(s3)) * lr
	g4 := (0 - sigmoid(s4)) * lr
	g5 := (0 - sigmoid(s5)) * lr
	for d, x := range vIn {
		a0, a1, a2, a3, a4, a5 := o0[d], o1[d], o2[d], o3[d], o4[d], o5[d]
		vIn[d] = x + ((((((0 + g0*a0) + g1*a1) + g2*a2) + g3*a3) + g4*a4) + g5*a5)
		o0[d] = a0 + g0*x
		o1[d] = a1 + g1*x
		o2[d] = a2 + g2*x
		o3[d] = a3 + g3*x
		o4[d] = a4 + g4*x
		o5[d] = a5 + g5*x
	}
}

func sigmoid(x float64) float64 {
	// Clamp to avoid overflow in Exp for extreme logits.
	if x > 30 {
		return 1
	}
	if x < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// Vector returns the learned embedding for word.
func (m *Model) Vector(word string) (Vector, bool) {
	id, ok := m.vocab.ID(word)
	if !ok {
		return nil, false
	}
	return m.in[id], true
}

// VocabSize returns the number of words in the model's vocabulary.
func (m *Model) VocabSize() int { return m.vocab.Size() }
