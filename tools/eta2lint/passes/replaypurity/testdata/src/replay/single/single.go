// Package single exercises replaypurity inside one package: direct and
// transitive effects, the sortedKeys exemption, directive suppression,
// goroutine pruning, method values, interface dispatch, and recursion.
package single

import (
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

type Server struct {
	users map[string]int
	ch    chan int
}

// applyEvent is a replay root by name.
func (s *Server) applyEvent(kind string) {
	_ = time.Now() // want `call to time\.Now`
	s.helper()
	s.clean()
	f := s.viaMethodValue // the reference is the call edge; the effect reports below
	f()
	s.recurse(3)
}

// helper is only reachable through applyEvent; its effects report at
// their own positions because the function is local.
func (s *Server) helper() {
	_ = rand.Int()           // want `call to math/rand\.Int`
	for k := range s.users { // want `range over map`
		_ = k
	}
	_ = sortedKeys(s.users)
	_ = sortedTaskIDs(nil)
}

// sortedKeys helpers are the sanctioned way to iterate a map: the range
// inside them is exempt.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortedTaskIDs proves the exemption covers every sorted* spelling, not
// just sortedKeys (regression: codec.go's generic helper).
func sortedTaskIDs(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// clean iterates deterministically and is not flagged.
func (s *Server) clean() {
	for _, k := range sortedKeys(s.users) {
		s.users[k]++
	}
}

func (s *Server) viaMethodValue() {
	_ = os.Getenv("HOME") // want `environment read os\.Getenv`
}

// recurse proves the traversal terminates on cycles and still surfaces
// effects behind them.
func (s *Server) recurse(n int) {
	if n == 0 {
		_ = runtime.NumCPU() // want `scheduler query runtime\.NumCPU`
		return
	}
	s.recurse(n - 1)
}

// decodeEvent is a replay root by name.
func (s *Server) decodeEvent(b []byte) {
	go s.pump() // want `goroutine spawn`
	//eta2:replaypurity-ok worker is joined before apply returns and mutates no replayed state
	go s.timeSink()
	select { // want `select statement`
	case <-s.ch:
	default:
	}
	_ = time.Now() //eta2:replaypurity-ok metrics timestamp, never enters replayed state
	s.audited()
	for k := range s.users { //eta2:nondeterministic-ok independent per-key reads
		_ = k
	}
}

// pump itself is clean; the unannotated spawn above is the finding.
func (s *Server) pump() {}

// timeSink is impure, but only reachable through the annotated spawn,
// which prunes the subtree.
func (s *Server) timeSink() { _ = time.Now() }

//eta2:replaypurity-ok audited: diagnostics only, output discarded on replay
func (s *Server) audited() {
	_ = time.Now()
	_ = rand.Int()
}

// decodeStateFrames is a replay root by name. Function
// literals belong to their enclosing function: the first spawn reports
// both the spawn and the clock read inside the literal; the annotated
// spawn prunes both.
func (s *Server) decodeStateFrames(b []byte) {
	go func() { // want `goroutine spawn`
		_ = time.Now() // want `call to time\.Now`
	}()
	//eta2:replaypurity-ok detached trace flush, not replayed state
	go func() {
		_ = time.Now()
	}()
}

// Source dispatches dynamically: every concrete implementation in the
// package is a potential callee.
type Source interface {
	Emit() int
}

type clock struct{}

func (clock) Emit() int { return int(time.Now().UnixNano()) } // want `call to time\.Now`

type pure struct{}

func (pure) Emit() int { return 7 }

// restoreServer is a replay root by name.
func restoreServer(src Source) {
	_ = src.Emit()
}

// notRoot has effects but is unreachable from any root: no findings.
func notRoot() {
	_ = time.Now()
	_ = os.Environ()
}

//eta2:replay-root
func customRoot() {
	_, _ = os.LookupEnv("TZ") // want `environment read os\.LookupEnv`
}
