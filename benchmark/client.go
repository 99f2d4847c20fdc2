package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eta2/internal/core"
)

// client issues every request of a run. Its transport holds at most
// maxConns connections per node, and at most maxConns goroutines issue
// requests at any time: load comes from one process on no more
// connections than the sandbox has CPUs.
type client struct {
	hc        *http.Client
	attempted atomic.Int64
	failed    atomic.Int64
	sent      atomic.Int64 // request body bytes
	firstErr  atomic.Pointer[string]
}

var maxConns = runtime.NumCPU()

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}
	// eta2server gives up on a response after 60 s; a request that slow has
	// failed whatever it eventually returns.
	return &client{hc: &http.Client{Transport: tr, Timeout: 90 * time.Second}}
}

// raw performs one request without counting it as an operation.
func (c *client) raw(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// do performs one counted operation. Anything but a complete 2xx answer
// is a failed operation; the first failure is kept for the report.
func (c *client) do(method, url string, body []byte) ([]byte, bool) {
	c.attempted.Add(1)
	c.sent.Add(int64(len(body)))
	st, data, err := c.raw(method, url, body)
	if err == nil && st/100 == 2 {
		return data, true
	}
	c.failed.Add(1)
	msg := fmt.Sprintf("%s %s: status %d err %v body %.200s", method, url, st, err, data)
	c.firstErr.CompareAndSwap(nil, &msg)
	return data, false
}

// timed is do plus the request's latency in milliseconds; a failed request
// reads as +Inf so it misses every latency bound.
func (c *client) timed(method, url string, body []byte) ([]byte, float64) {
	start := time.Now()
	data, ok := c.do(method, url, body)
	if !ok {
		return data, math.Inf(1)
	}
	return data, msSince(start)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// request is one entry of an open-loop schedule or a closed-loop batch.
type request struct {
	write  bool
	method string
	url    string
	body   []byte
	obs    []core.Observation // what a submit carries, for the count checks
}

// pacedResult is what one open-loop stage measured.
type pacedResult struct {
	writes, reads []sample
	lateMs        []float64 // how long after its due time each request was sent
	failedIdx     []int     // indices of requests that failed
	wall          float64   // seconds
}

// onConns runs worker on conns goroutines at once, the caller's included,
// and returns when all have finished.
func onConns(conns int, worker func()) {
	var wg sync.WaitGroup
	for k := 1; k < conns; k++ {
		wg.Add(1)
		go func() { defer wg.Done(); worker() }()
	}
	worker()
	wg.Wait()
}

// runPaced sends n requests (request i is reqs[i%len(reqs)]) on a fixed
// schedule of rate requests per second over conns connections, whatever
// the answers take: request i is due at i/rate, and its latency counts
// from that due time, so a stall charges every request queued behind it.
// stop, when non-nil, ends the schedule early once it reads true (the
// probes run until their close returns).
func (c *client) runPaced(reqs []request, n int, rate float64, conns int, stop *atomic.Bool) pacedResult {
	var next atomic.Int64
	var mu sync.Mutex
	var res pacedResult
	start := time.Now()
	onConns(conns, func() {
		var writes, reads []sample
		var late []float64
		var failed []int
		for {
			i := int(next.Add(1) - 1)
			// A stopped schedule still sends its first request, so a probe
			// beside a very short close yields one sample, not none.
			if i >= n || (i > 0 && stop != nil && stop.Load()) {
				break
			}
			dueOff := float64(i) / rate
			due := start.Add(time.Duration(dueOff * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if i > 0 && stop != nil && stop.Load() {
				break
			}
			late = append(late, msSince(due))
			r := reqs[i%len(reqs)]
			_, ok := c.do(r.method, r.url, r.body)
			s := sample{due: dueOff, ms: msSince(due)}
			if !ok {
				s.ms = math.Inf(1)
				failed = append(failed, i)
			}
			if r.write {
				writes = append(writes, s)
			} else {
				reads = append(reads, s)
			}
		}
		mu.Lock()
		res.writes = append(res.writes, writes...)
		res.reads = append(res.reads, reads...)
		res.lateMs = append(res.lateMs, late...)
		res.failedIdx = append(res.failedIdx, failed...)
		mu.Unlock()
	})
	res.wall = time.Since(start).Seconds()
	return res
}

// runClosed sends reqs as fast as the answers come back over conns
// connections: each connection sends its next request when the previous
// one completed. Latency counts from the moment the connection was free.
// each, when non-nil, sees every answered request; with more than one
// connection it is called from several goroutines.
func (c *client) runClosed(reqs []request, conns int, each func(i int, body []byte)) pacedResult {
	var next atomic.Int64
	var mu sync.Mutex
	var res pacedResult
	start := time.Now()
	onConns(conns, func() {
		var out []sample
		var failed []int
		for {
			i := int(next.Add(1) - 1)
			if i >= len(reqs) {
				break
			}
			r := reqs[i]
			t0 := time.Now()
			data, ms := c.timed(r.method, r.url, r.body)
			out = append(out, sample{due: t0.Sub(start).Seconds(), ms: ms})
			if math.IsInf(ms, 1) {
				failed = append(failed, i)
			} else if each != nil {
				each(i, data)
			}
		}
		mu.Lock()
		res.writes = append(res.writes, out...)
		res.failedIdx = append(res.failedIdx, failed...)
		mu.Unlock()
	})
	res.wall = time.Since(start).Seconds()
	return res
}
