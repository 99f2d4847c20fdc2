package embedding

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// modelState is the serialized form of a trained Model. Only the input
// vectors are persisted — the output (context) vectors exist solely for
// training, and a loaded model cannot resume training.
type modelState struct {
	Version int         `json:"version"`
	Dim     int         `json:"dim"`
	Words   []string    `json:"words"`
	Counts  []int       `json:"counts"`
	Vectors [][]float64 `json:"vectors"`
}

const modelVersion = 1

// Save serializes the model as JSON so a service can train once and reload
// at startup: training the builtin model takes 0.23–0.28 s and Load of its
// 237 KB file (BenchmarkBuiltin) 3.7–3.9 ms (2-vCPU Xeon 2.10 GHz, go1.24.0,
// commit 5bacae0).
func (m *Model) Save(w io.Writer) error {
	st := modelState{
		Version: modelVersion,
		Dim:     m.dim,
		Words:   make([]string, m.vocab.Size()),
		Counts:  make([]int, m.vocab.Size()),
		Vectors: make([][]float64, m.vocab.Size()),
	}
	for id := 0; id < m.vocab.Size(); id++ {
		st.Words[id] = m.vocab.Word(id)
		st.Counts[id] = m.vocab.Count(id)
		st.Vectors[id] = m.in[id]
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(st); err != nil {
		return fmt.Errorf("embedding: save model: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("embedding: save model: %w", err)
	}
	return nil
}

// ErrBadModel is returned when loading an invalid model snapshot.
var ErrBadModel = errors.New("embedding: invalid model snapshot")

// Load restores a model saved with Save. The returned model serves lookups
// and similarity queries; it cannot be trained further.
func Load(r io.Reader) (*Model, error) {
	var st modelState
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&st); err != nil {
		return nil, fmt.Errorf("embedding: load model: %w", err)
	}
	if st.Version != modelVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadModel, st.Version, modelVersion)
	}
	if st.Dim <= 0 || len(st.Words) != len(st.Vectors) || len(st.Words) != len(st.Counts) {
		return nil, fmt.Errorf("%w: inconsistent sizes", ErrBadModel)
	}
	m := &Model{dim: st.Dim, vocab: NewVocabulary()}
	m.in = make([]Vector, len(st.Words))
	for id, w := range st.Words {
		if len(st.Vectors[id]) != st.Dim {
			return nil, fmt.Errorf("%w: word %q has %d dims, want %d", ErrBadModel, w, len(st.Vectors[id]), st.Dim)
		}
		if _, exists := m.vocab.ID(w); exists {
			return nil, fmt.Errorf("%w: duplicate word %q", ErrBadModel, w)
		}
		// Rebuild the vocabulary with the original counts, so a restored
		// model saves the bytes it was loaded from.
		m.vocab.addWithCount(w, st.Counts[id])
		m.in[id] = Vector(st.Vectors[id])
	}
	return m, nil
}

// addWithCount inserts a word with a pre-known frequency (restore path).
func (v *Vocabulary) addWithCount(word string, count int) {
	id := len(v.words)
	v.ids[word] = id
	v.words = append(v.words, word)
	v.counts = append(v.counts, count)
	v.total += count
}
