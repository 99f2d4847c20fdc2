// Package cross proves write-through-parameter facts propagate across
// package boundaries: the mutation lives in snapshot/storage, which is
// clean in isolation; the violation surfaces here, where a published
// container is passed in.
package cross

import (
	"sync/atomic"

	"snapshot/storage"
)

type serverState struct {
	truths map[string]float64
}

type Server struct {
	w     serverState
	state atomic.Pointer[serverState]
}

func (s *Server) publishLocked() {
	st := s.w
	s.state.Store(&st)
}

func (s *Server) badCrossPackage(k string, sink storage.Sink) {
	storage.Bump(s.w.truths, k)         // want `passes snapshot-reachable s\.w\.truths to snapshot/storage\.Bump`
	storage.Touch(s.w.truths, k)        // want `passes snapshot-reachable s\.w\.truths to snapshot/storage\.Touch`
	sink.Put(s.w.truths, k)             // want `passes snapshot-reachable s\.w\.truths to \(snapshot/storage\.Writer\)\.Put`
	_ = storage.ReadOnly(s.w.truths, k) // reads are the whole point of snapshots
}

func (s *Server) goodCrossPackage(k string) {
	next := make(map[string]float64, len(s.w.truths))
	for key, v := range s.w.truths {
		next[key] = v
	}
	storage.Bump(next, k) // fresh map: fine
	s.w.truths = next
	s.publishLocked()
}
