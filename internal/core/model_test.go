package core

import (
	"errors"
	"math"
	"testing"
)

func TestTaskValidate(t *testing.T) {
	tests := []struct {
		name    string
		task    Task
		wantErr bool
	}{
		{"valid", Task{ID: 0, ProcTime: 1}, false},
		{"valid full", Task{ID: 3, ProcTime: 2, Cost: 1, Base: 2}, false},
		{"negative id", Task{ID: -1, ProcTime: 1}, true},
		{"zero proc time", Task{ID: 0}, true},
		{"negative proc time", Task{ID: 0, ProcTime: -2}, true},
		{"negative cost", Task{ID: 0, ProcTime: 1, Cost: -1}, true},
		{"negative base", Task{ID: 0, ProcTime: 1, Base: -1}, true},
		{"NaN proc time", Task{ID: 0, ProcTime: math.NaN()}, true},
		{"infinite proc time", Task{ID: 0, ProcTime: math.Inf(1)}, true},
		{"NaN cost", Task{ID: 0, ProcTime: 1, Cost: math.NaN()}, true},
		{"infinite cost", Task{ID: 0, ProcTime: 1, Cost: math.Inf(1)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.task.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestUserValidate(t *testing.T) {
	if err := (User{ID: 0, Capacity: 5}).Validate(); err != nil {
		t.Errorf("valid user rejected: %v", err)
	}
	if err := (User{ID: -1, Capacity: 5}).Validate(); err == nil {
		t.Error("negative id accepted")
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (User{ID: 0, Capacity: c}).Validate(); err == nil {
			t.Errorf("capacity %g accepted", c)
		}
	}
}

func TestAllocationAddDuplicate(t *testing.T) {
	var a Allocation
	if err := a.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(1, 2); !errors.Is(err, ErrDuplicatePair) {
		t.Errorf("duplicate add: got %v, want ErrDuplicatePair", err)
	}
	if err := a.Add(1, 3); err != nil {
		t.Errorf("distinct pair rejected: %v", err)
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d, want 2", a.Len())
	}
}

func TestAllocationGrouping(t *testing.T) {
	var a Allocation
	_ = a.Add(1, 10)
	_ = a.Add(1, 11)
	_ = a.Add(2, 10)

	byTask := a.UsersByTask()
	if len(byTask[10]) != 2 || len(byTask[11]) != 1 {
		t.Errorf("UsersByTask = %v", byTask)
	}
	byUser := a.TasksByUser()
	if len(byUser[1]) != 2 || len(byUser[2]) != 1 {
		t.Errorf("TasksByUser = %v", byUser)
	}
}

func TestAllocationCostAndLoad(t *testing.T) {
	var a Allocation
	_ = a.Add(1, 10)
	_ = a.Add(1, 11)
	_ = a.Add(2, 10)

	cost := a.Cost(func(id TaskID) float64 { return float64(id) })
	if cost != 31 {
		t.Errorf("Cost = %g, want 31", cost)
	}
	load := a.Load(func(TaskID) float64 { return 2 })
	if load[1] != 4 || load[2] != 2 {
		t.Errorf("Load = %v", load)
	}
}

func TestAllocationMerge(t *testing.T) {
	var a, b Allocation
	_ = a.Add(1, 10)
	_ = b.Add(1, 10) // duplicate across allocations
	_ = b.Add(2, 20)
	a.Merge(&b)
	if a.Len() != 2 {
		t.Errorf("merged Len = %d, want 2 (duplicate dropped)", a.Len())
	}
	a.Merge(nil) // no-op
	if a.Len() != 2 {
		t.Error("nil merge changed allocation")
	}
}

// Merge appends all pairs of other into a, skipping duplicates.
func (a *Allocation) Merge(other *Allocation) {
	if other == nil {
		return
	}
	for _, p := range other.Pairs {
		_ = a.Add(p.User, p.Task) // duplicate pairs are silently kept once
	}
}
