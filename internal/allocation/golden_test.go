package allocation

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"eta2/internal/core"
)

// pairsFNV is the FNV-1a-64 of the allocation's pairs in their returned
// (user, task)-sorted order, each id as 8 little-endian bytes.
func pairsFNV(a *core.Allocation) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, p := range a.Pairs {
		binary.LittleEndian.PutUint64(b[:8], uint64(p.User))
		binary.LittleEndian.PutUint64(b[8:], uint64(p.Task))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTieFreeGoldensFromParent pins what the dense users×tasks heap greedy
// selected on tie-free inputs (every pair's expertise is its own uniform
// draw, so no two efficiencies are equal and the tie order cannot matter).
// The constants were produced by the code at commit cde2a11, the parent of
// the per-task-cursor rewrite; the rewrite must reproduce them bit for bit.
func TestTieFreeGoldensFromParent(t *testing.T) {
	for _, g := range []struct {
		name    string
		in      Input
		objBits uint64
		pairs   int
		fnv     uint64
	}{
		{"parallelInput(1)", parallelInput(1), 0x4043dfa3dad202ab, 184, 0xc8b25a48fe1985b2},
		{"randomInput(7,120,150)", randomInput(7, 120, 150), 0x40516af5b44b732c, 475, 0x254afaddd9c27889},
		{"randomInput(11,200,160)", randomInput(11, 200, 160), 0x40599ccc62ca0a49, 779, 0xf3a34192791ad5f},
	} {
		res, err := MaxQuality(g.in, MaxQualityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, n, sum := math.Float64bits(res.Objective), res.Allocation.Len(), pairsFNV(res.Allocation)
		if got != g.objBits || n != g.pairs || sum != g.fnv || res.UsedSecondPass {
			t.Errorf("%s: objective bits %#x, %d pairs, fnv %#x, second pass %v; parent had %#x, %d, %#x, false",
				g.name, got, n, sum, res.UsedSecondPass, g.objBits, g.pairs, g.fnv)
		}
	}

	// Min-cost on a tie-free input.
	in := randomInput(7, 120, 150)
	mc, err := MinCost(in, MinCostConfig{IterBudget: 40}, &fakeEnv{expertise: in.Expertise})
	if err != nil {
		t.Fatal(err)
	}
	if sum := pairsFNV(mc.Allocation); sum != 0xf7037abd45647e7d || mc.Allocation.Len() != 290 || mc.Iterations != 9 || mc.Cost != 290 {
		t.Errorf("min-cost: %d pairs, fnv %#x, %d iterations, cost %v", mc.Allocation.Len(), sum, mc.Iterations, mc.Cost)
	}
}
