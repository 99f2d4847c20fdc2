// Package cross proves write-through-parameter facts propagate across
// package boundaries: the mutation lives in snapshot/storage, which is
// clean in isolation; the violation surfaces here, where a published
// container is passed in.
package cross

import (
	"eta2/internal/rcu"
	"snapshot/storage"
)

type serverState struct {
	truths map[string]float64
}

type Server struct {
	st rcu.Cell[serverState]
}

func (s *Server) badCrossPackage(tx *rcu.Tx[serverState], k string, sink storage.Sink) {
	storage.Bump(tx.W.truths, k)         // want `passes snapshot-reachable tx\.W\.truths to snapshot/storage\.Bump`
	storage.Touch(tx.W.truths, k)        // want `passes snapshot-reachable tx\.W\.truths to snapshot/storage\.Touch`
	sink.Put(tx.W.truths, k)             // want `passes snapshot-reachable tx\.W\.truths to \(snapshot/storage\.Writer\)\.Put`
	_ = storage.ReadOnly(tx.W.truths, k) // reads are the whole point of snapshots
	storage.Bump(s.st.Load().truths, k)  // want `passes snapshot-reachable s\.st\.Load\(\)\.truths to snapshot/storage\.Bump`
}

func (s *Server) goodCrossPackage(k string) error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		next := make(map[string]float64, len(tx.W.truths))
		for key, v := range tx.W.truths {
			next[key] = v
		}
		storage.Bump(next, k) // fresh map: fine
		tx.W.truths = next
		return nil
	})
}
