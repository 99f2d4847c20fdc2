package embedding

import (
	"math"
)

// Vocabulary maps words to dense integer IDs and tracks corpus frequencies.
// It also maintains the unigram^¾ negative-sampling table used by SGNS.
type Vocabulary struct {
	ids    map[string]int
	words  []string
	counts []int
	total  int

	// negTable is a precomputed sampling table proportional to count^0.75,
	// built lazily by BuildNegativeTable.
	negTable []int
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]int)}
}

// AddSentence counts every token of the sentence into the vocabulary.
func (v *Vocabulary) AddSentence(tokens []string) {
	for _, t := range tokens {
		id, ok := v.ids[t]
		if !ok {
			id = len(v.words)
			v.ids[t] = id
			v.words = append(v.words, t)
			v.counts = append(v.counts, 0)
		}
		v.counts[id]++
		v.total++
	}
}

// ID returns the dense id of a word and whether it is known.
func (v *Vocabulary) ID(word string) (int, bool) {
	id, ok := v.ids[word]
	return id, ok
}

// Word returns the word with the given id. It returns "" for out-of-range
// ids.
func (v *Vocabulary) Word(id int) string {
	if id < 0 || id >= len(v.words) {
		return ""
	}
	return v.words[id]
}

// Size returns the number of distinct words.
func (v *Vocabulary) Size() int { return len(v.words) }

// Total returns the total token count.
func (v *Vocabulary) Total() int { return v.total }

// Count returns the corpus frequency of the word with the given id.
func (v *Vocabulary) Count(id int) int {
	if id < 0 || id >= len(v.counts) {
		return 0
	}
	return v.counts[id]
}

// KeepProbability returns the word2vec subsampling keep-probability for the
// word with the given id: min(1, (sqrt(f/t)+1)·t/f) with f the word's
// relative frequency. Very frequent words are down-sampled during training.
func (v *Vocabulary) KeepProbability(id int, threshold float64) float64 {
	if v.total == 0 || threshold <= 0 {
		return 1
	}
	f := float64(v.Count(id)) / float64(v.total)
	if f <= threshold {
		return 1
	}
	p := (math.Sqrt(f/threshold) + 1) * threshold / f
	if p > 1 {
		p = 1
	}
	return p
}

// BuildNegativeTable precomputes the negative-sampling table of the given
// size with probabilities proportional to count^0.75 (the word2vec default).
func (v *Vocabulary) BuildNegativeTable(size int) {
	if size < v.Size() {
		size = v.Size()
	}
	pow := make([]float64, v.Size())
	total := 0.0
	for i, c := range v.counts {
		pow[i] = math.Pow(float64(c), 0.75)
		total += pow[i]
	}
	v.negTable = make([]int, 0, size)
	if total <= 0 { // sum of freq^0.75 terms, each non-negative
		return
	}
	cum := 0.0
	next := 0
	for i := range pow {
		cum += pow[i] / total
		for next < size && float64(next)/float64(size) < cum {
			v.negTable = append(v.negTable, i)
			next++
		}
	}
	for len(v.negTable) < size {
		v.negTable = append(v.negTable, v.Size()-1)
	}
}

// SampleNegative draws a word id from the unigram^¾ distribution using u, a
// uniform sample in [0,1). BuildNegativeTable must have been called.
func (v *Vocabulary) SampleNegative(u float64) int {
	if len(v.negTable) == 0 {
		return 0
	}
	idx := int(u * float64(len(v.negTable)))
	if idx >= len(v.negTable) {
		idx = len(v.negTable) - 1
	}
	return v.negTable[idx]
}
