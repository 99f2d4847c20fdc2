package rcu

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// pair is torn if a reader ever sees its halves differ.
type pair struct{ a, b int }

func TestLoadDoesNotWaitOnAParkedWrite(t *testing.T) {
	var c Cell[pair]
	if err := c.Write(func(tx *Tx[pair]) error { tx.W = pair{1, 1}; return nil }); err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		done <- c.Write(func(tx *Tx[pair]) error {
			tx.W.a = 2
			close(parked)
			<-release
			tx.W.b = 2
			return nil
		})
	}()
	<-parked
	loaded := make(chan *pair)
	go func() { loaded <- c.Load() }()
	select {
	case p := <-loaded:
		if *p != (pair{1, 1}) {
			t.Errorf("Load during a parked Write = %+v, want the published {1 1}", *p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Load blocked behind a parked Write")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p := c.Load(); *p != (pair{2, 2}) {
		t.Errorf("Load after the Write = %+v, want {2 2}", *p)
	}
}

func TestConcurrentLoadsNeverSeeATornValue(t *testing.T) {
	var c Cell[pair]
	if err := c.Write(func(*Tx[pair]) error { return nil }); err != nil {
		t.Fatal(err)
	}
	const writes = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := c.Load()
				if p.a != p.b {
					t.Errorf("torn value %+v", *p)
					return
				}
				if p.a < last {
					t.Errorf("published value went back from %d to %d", last, p.a)
					return
				}
				last = p.a
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		if err := c.Write(func(tx *Tx[pair]) error {
			tx.W.a = i
			tx.W.b = i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if p := c.Load(); *p != (pair{writes, writes}) {
		t.Errorf("final value %+v, want {%d %d}", *p, writes, writes)
	}
}

func TestWritePublishesOnlyOnSuccess(t *testing.T) {
	var c Cell[pair]
	if c.Load() != nil {
		t.Fatal("a zero Cell published before its first Write")
	}
	if err := c.Write(func(tx *Tx[pair]) error { tx.W.a = 1; return nil }); err != nil {
		t.Fatal(err)
	}
	before := c.Load()
	refused := errors.New("refused")
	if err := c.Write(func(tx *Tx[pair]) error { return refused }); !errors.Is(err, refused) {
		t.Fatalf("Write returned %v, want fn's error", err)
	}
	if c.Load() != before {
		t.Error("a failing fn replaced the published pointer")
	}
	if err := c.Write(func(*Tx[pair]) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if after := c.Load(); after == before || *after != *before {
		t.Errorf("a successful Write published %p %+v, want a fresh copy of %+v", after, *after, *before)
	}
}

func TestPanickingWriteReleasesTheLock(t *testing.T) {
	var c Cell[pair]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic did not propagate out of Write")
			}
		}()
		_ = c.Write(func(*Tx[pair]) error { panic("fn failed") })
	}()
	if c.Load() != nil {
		t.Error("a panicking fn published")
	}
	done := make(chan error)
	go func() { done <- c.Write(func(tx *Tx[pair]) error { tx.W.a = 1; return nil }) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the lock stayed held after a panicking Write")
	}
}

// TestWriteAllocatesOnlyThePublishedCopy: a capturing callback stays on the
// caller's stack, so one Write costs one allocation, the copy it publishes.
func TestWriteAllocatesOnlyThePublishedCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are gated in normal builds")
	}
	var c Cell[pair]
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		n++
		_ = c.Write(func(tx *Tx[pair]) error { tx.W.a = n; return nil })
	})
	if allocs != 1 {
		t.Errorf("Write allocates %.1f objects/op, want 1", allocs)
	}
}
