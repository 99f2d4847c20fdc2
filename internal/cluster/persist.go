package cluster

import (
	"errors"
	"fmt"
	"math"

	"eta2/internal/core"
)

// EngineState is the serializable snapshot of an Engine. The distance
// function is not part of the snapshot — the caller re-supplies it (with
// the same item vectors) on restore.
type EngineState struct {
	Gamma      float64
	DStar      float64
	NItems     int
	NextDomain core.DomainID
	Domains    []core.DomainID // per cluster slot
	Members    [][]int         // per cluster slot
	DMat       [][]float64     // cluster × cluster
	ItemSlot   []int           // per item
}

// State exports the engine's clustering state.
func (e *Engine) State() EngineState {
	st := EngineState{
		Gamma:      e.gamma,
		DStar:      e.dstar,
		NItems:     e.nItems,
		NextDomain: e.nextDomain,
		DMat:       copyMatrix(e.dmat),
		ItemSlot:   append([]int(nil), e.itemCluster...),
	}
	for _, c := range e.clusters {
		st.Domains = append(st.Domains, c.domain)
		st.Members = append(st.Members, append([]int(nil), c.items...))
	}
	return st
}

// ErrBadEngineState is returned when restoring an inconsistent snapshot.
var ErrBadEngineState = errors.New("cluster: invalid engine state")

// Restore rebuilds an Engine from a snapshot and the (re-supplied) item
// distance function.
func Restore(st EngineState, dist DistFunc) (*Engine, error) {
	e, err := New(st.Gamma, dist)
	if err != nil {
		return nil, err
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	e.nItems = st.NItems
	e.dstar = st.DStar
	e.nextDomain = st.NextDomain
	e.dmat = copyMatrix(st.DMat)
	e.itemCluster = append([]int(nil), st.ItemSlot...)
	e.clusters = make([]clusterState, len(st.Domains))
	for i := range st.Domains {
		e.clusters[i] = clusterState{
			domain: st.Domains[i],
			items:  append([]int(nil), st.Members[i]...),
		}
	}
	return e, nil
}

// RestoreEuclidean rebuilds an Engine made by NewEuclidean. The snapshot is
// the one Restore reads: the per-cluster statistics and the set of distinct
// points are functions of Members and the coordinates alone (settleStats),
// so they are recomputed here, not stored.
func RestoreEuclidean(st EngineState, dist DistFunc, coords CoordFunc) (*Engine, error) {
	e, err := Restore(st, dist)
	if err != nil {
		return nil, err
	}
	p, err := newPoints(coords)
	if err != nil {
		return nil, err
	}
	var v []float64
	for x := 0; x < e.nItems; x++ {
		if v, err = p.fetch(x, v[:0]); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadEngineState, err)
		}
		p.firstSight(x, v)
	}
	for c := range e.clusters {
		p.sumMembers(&e.clusters[c])
	}
	e.points = p
	return e, nil
}

// validate reports what makes a snapshot one no engine could have exported.
func (st *EngineState) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadEngineState, fmt.Sprintf(format, args...))
	}
	k := len(st.Domains)
	if len(st.Members) != k || len(st.DMat) != k {
		return bad("%d domains, %d member lists, %d matrix rows", k, len(st.Members), len(st.DMat))
	}
	if len(st.ItemSlot) != st.NItems {
		return bad("%d items but %d slot entries", st.NItems, len(st.ItemSlot))
	}
	seen := 0
	for slot, members := range st.Members {
		for _, it := range members {
			if it < 0 || it >= st.NItems || st.ItemSlot[it] != slot {
				return bad("member %d of slot %d inconsistent", it, slot)
			}
			seen++
		}
	}
	if seen != st.NItems {
		return bad("members cover %d of %d items", seen, st.NItems)
	}
	// A d* that is not a finite distance makes γ·d* merge everything or
	// nothing; a short matrix row would be padded with zeros, and a zero
	// linkage merges two domains on the next AddItems.
	if !(st.DStar >= 0) || math.IsInf(st.DStar, 0) {
		return bad("d* = %g", st.DStar)
	}
	for i, row := range st.DMat {
		if len(row) != k {
			return bad("matrix row %d has %d of %d entries", i, len(row), k)
		}
		for j, d := range row[:i] { // rows j < i are full length by now
			if !(d >= 0) || math.IsInf(d, 0) {
				return bad("linkage [%d][%d] = %g", i, j, d)
			}
			if math.Float64bits(d) != math.Float64bits(st.DMat[j][i]) {
				return bad("linkage [%d][%d] = %g but [%d][%d] = %g", i, j, d, j, i, st.DMat[j][i])
			}
		}
	}
	ids := make(map[core.DomainID]bool, k)
	for slot, id := range st.Domains {
		if ids[id] {
			return bad("domain %d in two slots", id)
		}
		ids[id] = true
		if id >= st.NextDomain {
			return bad("slot %d holds domain %d, next new domain is %d", slot, id, st.NextDomain)
		}
	}
	return nil
}
