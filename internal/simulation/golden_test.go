package simulation

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"eta2/internal/dataset"
	"eta2/internal/embedding"
)

// goldenHash is FNV-1a over the float bits of the run's per-day Error,
// TotalCost, MLEIterations and OverallError, in that order.
func goldenHash(res RunResult) uint64 {
	h := fnv.New64a()
	put := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, d := range res.Days {
		put(d.Error)
	}
	put(res.TotalCost)
	for _, it := range res.MLEIterations {
		put(float64(it))
	}
	put(res.OverallError)
	return h.Sum64()
}

// TestRunGolden pins Run's numbers to constants recorded with the code at
// commit 92bd220, before the server and the simulation shared their step
// bodies: a change that moves one of them changed the loop's arithmetic, not
// only where its code lives.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		name string
		ds   *dataset.Dataset
		cfg  Config
		want uint64
	}{
		{"synthetic ETA2", dataset.Synthetic(dataset.SyntheticConfig{Seed: 1}),
			Config{Method: MethodETA2, Seed: 42}, goldenSyntheticETA2},
		{"textual hash-embedder ETA2", dataset.SurveyLike(11),
			Config{Method: MethodETA2, Seed: 5, Embedder: embedding.NewHashEmbedder(16, 7)}, goldenTextualETA2},
		{"synthetic ETA2-mc", dataset.Synthetic(dataset.SyntheticConfig{Seed: 1, AvgCapacity: 16}),
			Config{Method: MethodETA2MC, Seed: 7, IterBudget: 60}, goldenSyntheticETA2MC},
	}
	for _, tc := range cases {
		res, err := Run(tc.ds, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := goldenHash(res); got != tc.want {
			t.Errorf("%s: hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

const (
	goldenSyntheticETA2   uint64 = 0xcf7e72e1940430b8
	goldenTextualETA2     uint64 = 0x4d461a1f0c1d4202
	goldenSyntheticETA2MC uint64 = 0xaabf677f6f57659b
)
