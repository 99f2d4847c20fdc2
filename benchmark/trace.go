package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one time step
// share Step; Parent is the id of the span that caused this one (0 for a
// root). Times are microseconds since the tracer was made.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Step    int     `json:"step"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`

	tr *tracer
}

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. A nil tracer records nothing, so the untraced run
// carries the same calls at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(name string, step int, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Step: step, StartUS: t.now(), tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) now() float64 { return float64(time.Since(t.epoch)) / float64(time.Microsecond) }

// end closes the span and returns its duration in seconds.
func (s *span) end() float64 {
	if s == nil {
		return 0
	}
	s.EndUS = s.tr.now()
	return (s.EndUS - s.StartUS) / 1e6
}

// selfSeconds sums, per span name, each span's duration minus the part of
// it its direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += (s.EndUS - s.StartUS - child[s.ID]) / 1e6
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(workload string) (string, error) {
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
