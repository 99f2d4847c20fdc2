// Package rcu holds a value many goroutines read and one writer at a time
// changes: the writers' working copy, the lock that orders them and the copy
// published to readers, in one place. Outside this package the working copy
// is reached only through the *Tx a Write hands out, so holding it is holding
// the lock; readers Load the published copy and never wait on a writer
// (DESIGN.md §11). The published copy is shallow: a writer may assign a field
// of tx.W but never write through one.
package rcu

import (
	"sync"
	"sync/atomic"
)

// Cell owns one value of T. Nothing is published until the first Write.
type Cell[T any] struct {
	mu  sync.Mutex
	tx  Tx[T]
	pub atomic.Pointer[T]
}

// Tx is a writer's hold on a Cell's working copy, for one Write.
type Tx[T any] struct {
	W T
}

// Load returns the published copy (nil before the first Write) without
// blocking. It must not be written through.
func (c *Cell[T]) Load() *T {
	return c.pub.Load()
}

// Write runs fn with the lock held and publishes a copy of tx.W iff fn
// returns nil; a failing fn leaves readers the copy they had, so it must fail
// before it changes the working copy. The lock is released if fn panics.
func (c *Cell[T]) Write(fn func(tx *Tx[T]) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := fn(&c.tx); err != nil {
		return err
	}
	pub := c.tx.W
	c.pub.Store(&pub)
	return nil
}
