package embedding

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"eta2/internal/stats"
)

// tinyCorpus builds a corpus with two cleanly separated topics.
func tinyCorpus() [][]string {
	var corpus [][]string
	for i := 0; i < 200; i++ {
		corpus = append(corpus,
			[]string{"cat", "dog", "pet", "fur", "cat", "dog"},
			[]string{"car", "road", "drive", "wheel", "car", "road"},
		)
	}
	return corpus
}

func TestTrainEmptyCorpus(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); !errors.Is(err, ErrEmptyCorpus) {
		t.Errorf("got %v, want ErrEmptyCorpus", err)
	}
	if _, err := Train([][]string{{"solo"}}, TrainConfig{}); !errors.Is(err, ErrEmptyCorpus) {
		t.Errorf("single-token sentences only: got %v, want ErrEmptyCorpus", err)
	}
}

func TestTrainLearnsTopics(t *testing.T) {
	m, err := Train(tinyCorpus(), TrainConfig{Dim: 16, Epochs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	same, err := m.Similarity("cat", "dog")
	if err != nil {
		t.Fatal(err)
	}
	cross, err := m.Similarity("cat", "road")
	if err != nil {
		t.Fatal(err)
	}
	if same <= cross {
		t.Errorf("same-topic similarity %.3f not above cross-topic %.3f", same, cross)
	}
}

func TestTrainDeterministic(t *testing.T) {
	cfg := TrainConfig{Dim: 8, Epochs: 2, Seed: 7}
	m1, err := Train(tinyCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(tinyCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameModel(t, m1, m2)
}

// sameModel fails unless a and b hold the same vocabulary and the same bits
// in every coordinate of in and out, and Save the same bytes.
func sameModel(t *testing.T, a, b *Model) {
	t.Helper()
	if a.dim != b.dim || a.vocab.Size() != b.vocab.Size() {
		t.Fatalf("shape: dim %d/%d, vocabulary %d/%d", a.dim, b.dim, a.vocab.Size(), b.vocab.Size())
	}
	sameRows(t, "in", a.in, b.in)
	sameRows(t, "out", a.out, b.out)
	var sa, sb bytes.Buffer
	if err := a.Save(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("Save bytes differ")
	}
}

// sameRows fails at the first coordinate of a and b whose bits differ.
func sameRows(t *testing.T, name string, a, b []Vector) {
	t.Helper()
	for id := range a {
		for d := range a[id] {
			if x, y := a[id][d], b[id][d]; math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s[%d][%d]: %x (%g) vs %x (%g)", name, id, d, math.Float64bits(x), x, math.Float64bits(y), y)
			}
		}
	}
}

// trainReference is Train as it was before a pair's samples were
// interleaved: the same vocabulary, initialisation and random stream, one
// vector per make, and every pair through trainPairSequential. It also
// counts the pairs and how many of them Train sends down the sequential
// body, so a caller can tell which body a corpus exercises.
func trainReference(sentences [][]string, cfg TrainConfig) (m *Model, pairs, sequential int) {
	cfg.applyDefaults()
	vocab := NewVocabulary()
	for _, s := range sentences {
		vocab.AddSentence(s)
	}
	vocab.BuildNegativeTable(vocab.Size() * 32)

	rng := stats.NewRNG(cfg.Seed)
	m = &Model{vocab: vocab, dim: cfg.Dim}
	initScale := 0.5 / float64(cfg.Dim)
	for range vocab.Size() {
		vi := make(Vector, cfg.Dim)
		for d := range vi {
			vi[d] = rng.Uniform(-initScale, initScale)
		}
		m.in = append(m.in, vi)
		m.out = append(m.out, make(Vector, cfg.Dim))
	}
	var encoded [][]int
	for _, s := range sentences {
		var ids []int
		for _, w := range s {
			id, _ := vocab.ID(w)
			ids = append(ids, id)
		}
		if len(ids) > 1 {
			encoded = append(encoded, ids)
		}
	}

	totalSteps := cfg.Epochs * len(encoded)
	step := 0
	negs := make([]int, cfg.Negatives)
	grad := make(Vector, cfg.Dim)
	for range cfg.Epochs {
		for _, sent := range encoded {
			lr := cfg.LearningRate * (1 - 0.9*float64(step)/float64(totalSteps))
			step++
			for pos, center := range sent {
				if cfg.SubsampleThreshold > 0 &&
					rng.Float64() > vocab.KeepProbability(center, cfg.SubsampleThreshold) {
					continue
				}
				win := 1 + rng.Intn(cfg.Window)
				for cpos := max(0, pos-win); cpos < min(len(sent), pos+win+1); cpos++ {
					if cpos == pos {
						continue
					}
					for k := range negs {
						negs[k] = vocab.SampleNegative(rng.Float64())
					}
					pairs++
					if len(negs) != 5 || !distinctRows(sent[cpos], negs) {
						sequential++
					}
					m.trainPairSequential(center, sent[cpos], negs, lr, grad)
				}
			}
		}
	}
	return m, pairs, sequential
}

// Train must produce the model the sequential reference does, to the last
// bit of in and out. The builtin cases send most pairs down trainPairFused
// and some down trainPairSequential, in one random stream; tinyCorpus has 8
// words, so almost every pair repeats a row and the boundary between the
// two bodies is crossed both ways all the time.
func TestTrainMatchesSequentialReference(t *testing.T) {
	builtin := GenerateCorpus(BuiltinDomains, CorpusConfig{Seed: 1})
	for _, tc := range []struct {
		name   string
		corpus [][]string
		cfg    TrainConfig
		// fused: the case must reach trainPairFused (every case reaches
		// trainPairSequential).
		fused bool
	}{
		{"builtin", builtin, TrainConfig{Seed: 2}, true},
		{"builtin/dim24", builtin, TrainConfig{Dim: 24, Epochs: 3, Seed: 2}, true},
		{"builtin/dim7", builtin, TrainConfig{Dim: 7, Epochs: 1, Seed: 2}, true},
		{"builtin/neg1", builtin, TrainConfig{Negatives: 1, Epochs: 1, Seed: 2}, false},
		{"builtin/neg8", builtin, TrainConfig{Negatives: 8, Epochs: 1, Seed: 2}, false},
		{"builtin/subsample", builtin, TrainConfig{SubsampleThreshold: 1e-3, Epochs: 2, Seed: 2}, true},
		{"tiny", tinyCorpus(), TrainConfig{Dim: 8, Epochs: 2, Seed: 7}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, pairs, sequential := trainReference(tc.corpus, tc.cfg)
			if (sequential < pairs) != tc.fused || sequential == 0 {
				t.Fatalf("%d of %d pairs take the sequential body: the case does not exercise what it names", sequential, pairs)
			}
			t.Logf("%d pairs, %.1f%% sequential", pairs, 100*float64(sequential)/float64(pairs))
			got, err := Train(tc.corpus, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameModel(t, got, want)
		})
	}
}

// The one difference no trained corpus reaches: with every sigmoid clamped
// each sample's gradient term is ±0, the sequential body's sum starts at +0
// and so ends at +0, and a fused sum that started at the first term would end
// at −0 and leave vIn's −0 coordinate −0.
func TestFusedPairMatchesSequentialOnSignedZero(t *testing.T) {
	build := func() *Model {
		m := &Model{dim: 2, in: rows(1, 2), out: rows(6, 2)}
		copy(m.in[0], Vector{math.Copysign(0, -1), 10})
		copy(m.out[0], Vector{-1, 4}) // logit 40: the positive's sigmoid is 1
		for k := 1; k < 6; k++ {
			copy(m.out[k], Vector{-1, -4 - float64(k)}) // logits below −30: 0
		}
		return m
	}
	negs := []int{1, 2, 3, 4, 5}
	if !distinctRows(0, negs) {
		t.Fatal("the case must be one Train fuses")
	}
	want, got := build(), build()
	want.trainPairSequential(0, 0, negs, 0.05, make(Vector, 2))
	got.trainPairFused(0, 0, negs, 0.05)
	if x := want.in[0][0]; x != 0 || math.Signbit(x) {
		t.Fatalf("sequential body left in[0][0] = %g (sign bit %v), want +0: the case lost its point", x, math.Signbit(x))
	}
	sameRows(t, "in", want.in, got.in)
	sameRows(t, "out", want.out, got.out)
}

func BenchmarkSkipGramTraining(b *testing.B) {
	for _, bc := range []struct {
		name   string
		corpus [][]string
		cfg    TrainConfig
	}{
		{"small", GenerateCorpus(BuiltinDomains, CorpusConfig{Seed: 1, SentencesPerDomain: 100}), TrainConfig{Dim: 32, Epochs: 2, Seed: 2}},
		// The model Builtin loads: what TestBuiltinIsTrainedModel trains.
		{"builtin", GenerateCorpus(BuiltinDomains, CorpusConfig{Seed: 1}), TrainConfig{Seed: 2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, pairs, sequential := trainReference(bc.corpus, bc.cfg)
			b.ResetTimer()
			for range b.N {
				if _, err := Train(bc.corpus, bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			b.ReportMetric(100*float64(sequential)/float64(pairs), "fallback-%")
		})
	}
}

func TestModelVectorUnknown(t *testing.T) {
	m, err := Train(tinyCorpus(), TrainConfig{Dim: 8, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Vector("unicorn"); ok {
		t.Error("unknown word reported known")
	}
	if _, err := m.Similarity("cat", "unicorn"); err == nil {
		t.Error("similarity with OOV should fail")
	}
	if m.Dim() != 8 {
		t.Errorf("Dim = %d, want 8", m.Dim())
	}
	if m.VocabSize() != 8 {
		t.Errorf("VocabSize = %d, want 8", m.VocabSize())
	}
}

func TestPhraseComposition(t *testing.T) {
	m, err := Train(tinyCorpus(), TrainConfig{Dim: 8, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Phrase(m, []string{"cat", "dog"})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Vector("cat")
	d, _ := m.Vector("dog")
	for i := range v {
		if v[i] != c[i]+d[i] {
			t.Fatal("phrase is not the element-wise sum")
		}
	}
	// Unknown words are skipped; all-unknown is an error.
	if _, err := Phrase(m, []string{"cat", "unicorn"}); err != nil {
		t.Errorf("partially known phrase failed: %v", err)
	}
	if _, err := Phrase(m, []string{"unicorn"}); !errors.Is(err, ErrEmptyPhrase) {
		t.Errorf("got %v, want ErrEmptyPhrase", err)
	}
}

func TestHashEmbedderDeterministic(t *testing.T) {
	h := NewHashEmbedder(16, 1)
	v1, ok1 := h.Vector("anything")
	v2, ok2 := h.Vector("anything")
	if !ok1 || !ok2 {
		t.Fatal("hash embedder should know every word")
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("hash embedding not deterministic")
		}
	}
	v3, _ := h.Vector("different")
	if v1.SquaredDistance(v3) == 0 {
		t.Error("distinct words should not collide")
	}
	if h.Dim() != 16 {
		t.Errorf("Dim = %d", h.Dim())
	}
	if NewHashEmbedder(0, 1).Dim() != 1 {
		t.Error("dim floor not applied")
	}
}

func TestHashEmbedderSeedChangesVectors(t *testing.T) {
	a, _ := NewHashEmbedder(8, 1).Vector("w")
	b, _ := NewHashEmbedder(8, 2).Vector("w")
	if a.SquaredDistance(b) == 0 {
		t.Error("different seeds should produce different vectors")
	}
}

func TestGenerateCorpusShape(t *testing.T) {
	corpus := GenerateCorpus(BuiltinDomains[:2], CorpusConfig{SentencesPerDomain: 10, WordsPerSentence: 6, Seed: 1})
	if len(corpus) != 20 {
		t.Fatalf("corpus has %d sentences, want 20", len(corpus))
	}
	for _, s := range corpus {
		if len(s) != 6 {
			t.Fatalf("sentence length %d, want 6", len(s))
		}
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	a := GenerateCorpus(BuiltinDomains, CorpusConfig{Seed: 3})
	b := GenerateCorpus(BuiltinDomains, CorpusConfig{Seed: 3})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed produced different corpora")
			}
		}
	}
}

func TestBuiltinDomainsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range BuiltinDomains {
		if d.Name == "" || seen[d.Name] {
			t.Errorf("domain name %q empty or duplicated", d.Name)
		}
		seen[d.Name] = true
		if len(d.QueryTerms) < 3 || len(d.TargetTerms) < 3 || len(d.Context) < 5 {
			t.Errorf("domain %s too sparse", d.Name)
		}
	}
}

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
