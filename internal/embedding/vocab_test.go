package embedding

import (
	"testing"
)

func TestVocabularyCounting(t *testing.T) {
	v := NewVocabulary()
	v.AddSentence([]string{"a", "b", "a"})
	v.AddSentence([]string{"b", "c"})

	if v.Size() != 3 {
		t.Errorf("Size = %d, want 3", v.Size())
	}
	if v.Total() != 5 {
		t.Errorf("Total = %d, want 5", v.Total())
	}
	id, ok := v.ID("a")
	if !ok || v.Count(id) != 2 {
		t.Errorf("count(a) = %d, want 2", v.Count(id))
	}
	if v.Word(id) != "a" {
		t.Errorf("Word(%d) = %q", id, v.Word(id))
	}
	if _, ok := v.ID("zzz"); ok {
		t.Error("unknown word reported known")
	}
	if v.Word(-1) != "" || v.Word(99) != "" {
		t.Error("out-of-range Word should be empty")
	}
	if v.Count(99) != 0 {
		t.Error("out-of-range Count should be 0")
	}
}

func TestKeepProbability(t *testing.T) {
	v := NewVocabulary()
	for i := 0; i < 1000; i++ {
		v.AddSentence([]string{"frequent"})
	}
	v.AddSentence([]string{"rare"})
	fid, _ := v.ID("frequent")
	rid, _ := v.ID("rare")
	pf := v.KeepProbability(fid, 1e-3)
	pr := v.KeepProbability(rid, 1e-3)
	if pf >= pr {
		t.Errorf("frequent word keep-prob %g should be below rare %g", pf, pr)
	}
	if pr != 1 {
		t.Errorf("rare word keep-prob = %g, want 1", pr)
	}
	if v.KeepProbability(fid, 0) != 1 {
		t.Error("zero threshold disables subsampling")
	}
}

func TestNegativeTable(t *testing.T) {
	v := NewVocabulary()
	for i := 0; i < 100; i++ {
		v.AddSentence([]string{"big"})
	}
	v.AddSentence([]string{"small"})
	v.BuildNegativeTable(1000)

	bigID, _ := v.ID("big")
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		counts[v.SampleNegative(float64(i)/1000)]++
	}
	if counts[bigID] < 500 {
		t.Errorf("frequent word sampled only %d/1000 times", counts[bigID])
	}
	smallID, _ := v.ID("small")
	if counts[smallID] == 0 {
		t.Error("rare word never sampled despite unigram^0.75 smoothing")
	}
}

func TestSampleNegativeEmptyTable(t *testing.T) {
	v := NewVocabulary()
	if got := v.SampleNegative(0.5); got != 0 {
		t.Errorf("empty table sample = %d, want 0", got)
	}
}
