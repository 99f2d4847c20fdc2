//go:build race

package rcu

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so the alloc-count test skips itself.
const raceEnabled = true
