// Package storage holds helpers that write through their parameters.
// Analyzed alone it is clean — it has no state cell — but its
// write-through-parameter facts travel to dependents.
package storage

// Bump mutates the map it is handed.
func Bump(m map[string]float64, k string) {
	m[k] += 1.0
}

// Touch forwards to Bump: the write-through closes over the hop inside
// this package's own fixpoint before the fact is exported.
func Touch(m map[string]float64, k string) {
	Bump(m, k)
}

// ReadOnly never writes its parameter.
func ReadOnly(m map[string]float64, k string) float64 {
	return m[k]
}

// Sink dispatches dynamically; Writer's facts bind to it.
type Sink interface {
	Put(m map[string]float64, k string)
}

type Writer struct{}

func (Writer) Put(m map[string]float64, k string) { m[k] = 0 }

type Reader struct{}

func (Reader) Put(m map[string]float64, k string) { _ = m[k] }
