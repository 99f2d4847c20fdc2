package cluster

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"eta2/internal/core"
	"eta2/internal/stats"
)

func TestEngineStateRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	pts := make([][2]float64, 40)
	for i := range pts {
		pts[i] = [2]float64{rng.Uniform(0, 10), rng.Uniform(0, 10)}
	}
	dist := pointDist(pts)

	eng, err := New(0.4, dist)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddItems(30); err != nil {
		t.Fatal(err)
	}

	st := eng.State()
	restored, err := Restore(st, dist)
	if err != nil {
		t.Fatal(err)
	}

	if restored.NumItems() != eng.NumItems() || restored.NumDomains() != eng.NumDomains() {
		t.Fatal("shape mismatch after restore")
	}
	if restored.DStar() != eng.DStar() {
		t.Error("d* lost")
	}
	if !reflect.DeepEqual(restored.Members(), eng.Members()) {
		t.Error("membership differs after restore")
	}

	// Both engines must evolve identically on the same new items.
	upA, err := eng.AddItems(10)
	if err != nil {
		t.Fatal(err)
	}
	upB, err := restored.AddItems(10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(upA.Assigned, upB.Assigned) {
		t.Error("restored engine diverged on new items")
	}
	if !reflect.DeepEqual(upA.NewDomains, upB.NewDomains) || !reflect.DeepEqual(upA.Merges, upB.Merges) {
		t.Error("restored engine produced different events")
	}
}

func TestRestoreRejectsInvalid(t *testing.T) {
	dist := func(a, b int) float64 { return 1 }

	if _, err := Restore(EngineState{Gamma: 2}, dist); err == nil {
		t.Error("bad gamma accepted")
	}
	// Two domains of one item each, as an engine exports them.
	valid := func() EngineState {
		return EngineState{
			Gamma:      0.5,
			DStar:      1,
			NItems:     2,
			NextDomain: 3,
			Domains:    []core.DomainID{1, 2},
			Members:    [][]int{{0}, {1}},
			DMat:       [][]float64{{0, 1}, {1, 0}},
			ItemSlot:   []int{0, 1},
		}
	}
	if _, err := Restore(valid(), dist); err != nil {
		t.Fatalf("the state the cases below start from: %v", err)
	}
	for name, corrupt := range map[string]func(*EngineState){
		"item/slot length mismatch": func(st *EngineState) { st.ItemSlot = st.ItemSlot[:1] },
		"incomplete membership":     func(st *EngineState) { st.Members[1] = nil },
		"domains/members mismatch":  func(st *EngineState) { st.Members = st.Members[:1] },
		// growMatrix would pad the short row with zeros: distance 0 to the
		// other domain, merged on the next AddItems.
		"ragged matrix":            func(st *EngineState) { st.DMat[1] = st.DMat[1][:1] },
		"NaN linkage":              func(st *EngineState) { st.DMat[0][1], st.DMat[1][0] = math.NaN(), math.NaN() },
		"infinite linkage":         func(st *EngineState) { st.DMat[0][1], st.DMat[1][0] = math.Inf(1), math.Inf(1) },
		"negative linkage":         func(st *EngineState) { st.DMat[0][1], st.DMat[1][0] = -1, -1 },
		"asymmetric matrix":        func(st *EngineState) { st.DMat[0][1] = 2 },
		"negative d*":              func(st *EngineState) { st.DStar = -1 },
		"infinite d*":              func(st *EngineState) { st.DStar = math.Inf(1) },
		"NaN d*":                   func(st *EngineState) { st.DStar = math.NaN() },
		"duplicate domain id":      func(st *EngineState) { st.Domains[1] = 1 },
		"next domain already used": func(st *EngineState) { st.NextDomain = 2 },
	} {
		st := valid()
		corrupt(&st)
		if _, err := Restore(st, dist); !errors.Is(err, ErrBadEngineState) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// RestoreEuclidean also reads the coordinates, and refuses items that do not
// all have the same number of them.
func TestRestoreEuclideanRejectsMixedDimensions(t *testing.T) {
	s := &space{vecs: gaussianBlobs(1, 6, 2, 4, 0.1)}
	e, _ := NewEuclidean(0.5, s.dist, s.coords)
	if _, err := e.AddItems(6); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEuclidean(e.State(), s.dist, s.coords); err != nil {
		t.Fatal(err)
	}
	s.vecs[4].Query = s.vecs[4].Query[:3]
	if _, err := RestoreEuclidean(e.State(), s.dist, s.coords); !errors.Is(err, ErrBadEngineState) {
		t.Errorf("item 4 has 7 coordinates among 8-coordinate items: %v", err)
	}
}
