package embedding

import (
	"errors"
	"fmt"
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
	// threshold t (default 1e-3). Zero disables subsampling.
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
	// training.
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
	m.in = make([]Vector, vocab.Size())
	m.out = make([]Vector, vocab.Size())
	initScale := 0.5 / float64(cfg.Dim)
	for i := range m.in {
		vi := make(Vector, cfg.Dim)
		for d := range vi {
			vi[d] = rng.Uniform(-initScale, initScale)
		}
		m.in[i] = vi
		m.out[i] = make(Vector, cfg.Dim)
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
	grad := make(Vector, cfg.Dim)
	for range cfg.Epochs {
		for _, sent := range encoded {
			lr := cfg.LearningRate * (1 - 0.9*float64(step)/float64(totalSteps))
			step++
			m.trainSentence(sent, cfg, lr, rng, grad)
		}
	}
	return m, nil
}

// trainSentence runs one SGD pass over a single sentence.
func (m *Model) trainSentence(sent []int, cfg TrainConfig, lr float64, rng *stats.RNG, grad Vector) {
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
			m.trainPair(center, sent[cpos], cfg.Negatives, lr, rng, grad)
		}
	}
}

// trainPair applies one positive update and cfg.Negatives negative updates.
func (m *Model) trainPair(center, context, negatives int, lr float64, rng *stats.RNG, grad Vector) {
	vIn := m.in[center]
	for d := range grad {
		grad[d] = 0
	}
	// Positive sample (label 1) plus negative samples (label 0).
	for k := 0; k <= negatives; k++ {
		var target int
		var label float64
		if k == 0 {
			target, label = context, 1
		} else {
			target = m.vocab.SampleNegative(rng.Float64())
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

// Similarity returns the cosine similarity between two words, or an error
// if either is out of vocabulary.
func (m *Model) Similarity(a, b string) (float64, error) {
	va, ok := m.Vector(a)
	if !ok {
		return 0, fmt.Errorf("embedding: unknown word %q", a)
	}
	vb, ok := m.Vector(b)
	if !ok {
		return 0, fmt.Errorf("embedding: unknown word %q", b)
	}
	return va.Cosine(vb), nil
}
