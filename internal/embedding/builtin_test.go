package embedding

import (
	"bytes"
	"flag"
	"math"
	"os"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite builtin_model.json from a fresh training run")

// fmaExpBits is math.Exp(-29.9991) on amd64's FMA path; the other path's
// last bit differs.
const fmaExpBits = 0x3d3a5cf304d2b913

// The shipped model is what Train gives on the builtin corpus, to the byte,
// and Builtin saves the bytes it loads.
func TestBuiltinIsTrainedModel(t *testing.T) {
	if runtime.GOARCH != "amd64" || math.Float64bits(math.Exp(-29.9991)) != fmaExpBits {
		t.Skip("training here takes math.Exp's non-FMA path (or a fusing compiler) and gives other bits than the shipped model (ROADMAP 13(d))")
	}
	trained, err := Train(GenerateCorpus(BuiltinDomains, CorpusConfig{Seed: 1}), TrainConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trained.Save(&want); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("builtin_model.json", want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(builtinModel, want.Bytes()) {
		t.Fatal("builtin_model.json is not the model Train gives (run with -update to regenerate)")
	}
	loaded, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := loaded.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), builtinModel) {
		t.Fatal("Builtin does not save the bytes it loads")
	}
}

// What a -semantic node pays at start-up for its model.
func BenchmarkBuiltin(b *testing.B) {
	for range b.N {
		if _, err := Builtin(); err != nil {
			b.Fatal(err)
		}
	}
}
