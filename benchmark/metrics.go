package main

import (
	"math"
)

// steadyDays are the days the per-step medians read: day 0 is the warm-up
// (joint MLE from scratch, first allocation) and the tail day holds the
// kill, so both stay out when other days exist.
func (r *runner) steadyDays() []dayRec {
	var out []dayRec
	for _, d := range r.days {
		if d.day >= 1 && !d.tail {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		for _, d := range r.days {
			if !d.tail {
				out = append(out, d)
			}
		}
	}
	if len(out) == 0 {
		out = r.days
	}
	return out
}

func pick(days []dayRec, f func(dayRec) float64) []float64 {
	out := make([]float64, 0, len(days))
	for _, d := range days {
		if v := f(d); !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// endToEnd computes every metric a user of the system would see. Which of
// them BENCHMARK.json lists as end-to-end is decided there; the rest are
// printed with the per-layer numbers.
func (r *runner) endToEnd() map[string]float64 {
	m := make(map[string]float64)
	steady := r.steadyDays()
	m["setup_s"] = median(r.setupS)
	m["step_s"] = midmean(pick(steady, dayRec.step))
	m["alloc_ready_s"] = midmean(pick(steady, func(d dayRec) float64 { return d.create + d.alloc }))
	m["close_s"] = median(pick(steady, func(d dayRec) float64 { return d.closeS }))
	m["ingest_obs_per_s"] = median(pick(steady, func(d dayRec) float64 { return float64(d.obsAcked) / d.ingest }))
	stalls := pick(steady, func(d dayRec) float64 { return d.stallMs })
	if len(stalls) == 0 {
		stalls = pick(r.days, func(d dayRec) float64 { return d.stallMs })
	}
	m["stall_max_ms"] = median(stalls)

	tasks := 0
	for _, d := range r.days {
		tasks += d.tasksClosed
	}
	m["tasks_per_s"] = float64(tasks) / r.measured.Seconds()

	submits, reads := r.submitLat, r.readLat
	switch r.sp.ingest {
	case ingestPaced:
		// The stages the issue names: submits under the heavier write mix,
		// reads under the read mix.
		if w := r.stages["w80-r2000"]; w != nil {
			submits = w.writes
		}
		if rd := r.stages["r95-r2000"]; rd != nil {
			reads = rd.reads
		}
	case ingestBulk:
		reads = r.closeReads
	}
	m["submit_p50_ms"] = median(latencies(submits))
	m["submit_p99w_ms"], _ = windowedP99(submits)
	m["read_p50_ms"] = median(latencies(reads))
	m["read_p99w_ms"], _ = windowedP99(reads)

	m["recover_s"] = r.recoverS
	m["follower_catchup_s"] = r.catchupS
	m["peak_rss_mb"] = r.peakRSS

	// Summed in close order, not map order, so the same truths give the
	// same digits.
	errSum := 0.0
	for _, id := range r.closed {
		t := r.in.tasks[int(id)]
		errSum += math.Abs(r.estimate[id].Value-t.Truth) / t.Base
	}
	m["truth_err_norm"] = errSum / float64(len(r.closed))
	if m["truth_err_norm"] > r.sp.errCeiling {
		r.fail("truth_err_norm %.4f above the workload's ceiling %.2f", m["truth_err_norm"], r.sp.errCeiling)
	}
	m["failed_ops_ratio"] = float64(r.c.failed.Load()) / float64(r.c.attempted.Load())
	return m
}

// driverLayer computes the per-layer numbers the driver sees without the
// shadow pipeline: what went over HTTP and how the generator kept pace.
func (r *runner) driverLayer(m map[string]float64) {
	m["httpapi.requests"] = float64(r.c.attempted.Load())
	m["httpapi.failed"] = float64(r.c.failed.Load())
	m["httpapi.req_bytes"] = float64(r.c.sent.Load()) / float64(r.c.attempted.Load())
	if w := r.stages["w80-r1000"]; w != nil {
		m["httpapi.submit_p50_ms_r1000"] = median(latencies(w.writes))
	}
	var late []float64
	for _, g := range r.sp.stages {
		if p := r.stages[g.name]; p != nil {
			late = append(late, p.lateMs...)
		}
	}
	if len(late) > 0 {
		m["httpapi.gen_late_p99_ms"] = quantile(late, 0.99)
	}
	m["repl.stalled_followers"] = float64(r.stalledFollowers)
	m["httpapi.read_during_close_p50_ms"] = 0
	if len(r.closeReads) > 0 {
		m["httpapi.read_during_close_p50_ms"] = median(latencies(r.closeReads))
	}
	if len(r.days) > 0 && r.days[0].day == 0 {
		m["eta2.step0_s"] = r.days[0].step()
	}
}
