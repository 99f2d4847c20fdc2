package obs

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// TestConcurrentUpdatesDuringGather hammers every metric type from many
// goroutines while WritePrometheus runs in a loop. Run with -race; the
// assertions at the end check that no update was lost.
func TestConcurrentUpdatesDuringGather(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("eta2_stress_counter", "x")
	cv := r.CounterVec("eta2_stress_counter_vec", "x", Label("shard", "a", "b", "c"))
	g := r.Gauge("eta2_stress_gauge", "x")
	h := r.Histogram("eta2_stress_hist", "x", ExpBuckets(0.001, 10, 4))

	const (
		writers = 8
		perG    = 2000
	)
	stop := make(chan struct{})
	gatherDone := make(chan struct{})

	// Gather concurrently with the writers.
	go func() {
		defer close(gatherDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	shards := []string{"a", "b", "c"}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				cv.With(shards[j%len(shards)]).Inc()
				g.Add(1)
				h.Observe(float64(j%100) / 50.0)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-gatherDone

	const total = writers * perG
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	var vecSum uint64
	for _, s := range shards {
		vecSum += cv.With(s).Value()
	}
	if vecSum != total {
		t.Errorf("counter vec sum = %d, want %d", vecSum, total)
	}
	if got := g.Value(); got != float64(total) {
		t.Errorf("gauge = %g, want %d", got, total)
	}
	var histCount uint64
	for i := range h.counts {
		histCount += h.counts[i].Load()
	}
	if histCount != total {
		t.Errorf("histogram count = %d, want %d", histCount, total)
	}

	// The registry must still render cleanly after the storm.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty exposition after stress")
	}
}
