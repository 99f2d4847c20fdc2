package embedding

import (
	"bytes"
	"strings"
	"testing"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, err := Train(tinyCorpus(), TrainConfig{Dim: 16, Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dim() != m.Dim() || loaded.VocabSize() != m.VocabSize() {
		t.Fatalf("shape mismatch: dim %d/%d vocab %d/%d", loaded.Dim(), m.Dim(), loaded.VocabSize(), m.VocabSize())
	}
	for _, w := range []string{"cat", "dog", "car", "road"} {
		a, okA := m.Vector(w)
		b, okB := loaded.Vector(w)
		if !okA || !okB {
			t.Fatalf("word %q lost", w)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vector for %q differs after reload", w)
			}
		}
	}
	// Similarities survive the round trip.
	s1, err := m.Similarity("cat", "dog")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := loaded.Similarity("cat", "dog")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("similarity drifted: %g vs %g", s1, s2)
	}
	// Vocabulary counts survive too.
	if loaded.vocab.Total() != m.vocab.Total() {
		t.Errorf("token totals: %d vs %d", loaded.vocab.Total(), m.vocab.Total())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"dim":2,"words":["a"],"counts":[1],"vectors":[[1,2,3]]}`)); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"dim":1,"words":["a","a"],"counts":[1,1],"vectors":[[1],[2]]}`)); err == nil {
		t.Error("duplicate word accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"dim":0,"words":[],"counts":[],"vectors":[]}`)); err == nil {
		t.Error("zero dim accepted")
	}
}
