// Package rcu is a stub of the server's publish cell: the type names and
// method set the analyzers recognize.
package rcu

import (
	"sync"
	"sync/atomic"
)

type Cell[T any] struct {
	mu  sync.Mutex
	tx  Tx[T]
	pub atomic.Pointer[T]
}

type Tx[T any] struct{ W T }

func (c *Cell[T]) Load() *T { return c.pub.Load() }

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
