package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"syscall"
	"time"
)

// layerNames are the per-layer metrics every workload's traced run
// reports, in print order; BENCHMARK.json lists the same names, and the
// smoke test keeps the two in step. A count or ratio of a layer the
// workload does not call reads 0; every time here is measured on all
// four workloads.
var layerNames = []string{
	"engine.loop_ms", "engine.ns_per_step", "engine.ns_per_hop", "engine.barrier_wait_ms",
	"engine.worker_util", "engine.allocs_per_op", "engine.hops", "engine.max_queue",
	"engine.stranded", "engine.scaling_2w",
	"traffic.pkts_per_step", "traffic.sojourn_p50_steps", "traffic.sojourn_p99_steps",
	"service.cache_hit_ratio", "service.warm_lease_ratio", "service.repurposed",
	"service.cold_builds", "service.journal_records_per_job", "service.journal_fsyncs",
	"service.rejected", "service.queue_depth_mean", "service.runners_busy_mean",
	"trace_overhead_pct",
}

// metric is one reported number. n is the number of samples a timing
// or percentile was taken over; 0 marks a count or a derived value.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// report is the outcome of one workload run.
type report struct {
	workload  string
	attempted int
	failed    int
	errs      []string // the first few failure messages

	e2e   []metric // end-to-end, measured with tracing off
	layer []metric // layerNames, measured by the traced run
	info  []metric // further named figures for the text report only
}

// maxErrs bounds how many failure messages a report keeps.
const maxErrs = 5

// tally counts one checked operation: err is its run error or the
// reason its output failed the check.
func (r *report) tally(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

// failRatio is failed over attempted operations.
func (r *report) failRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// fill returns the metrics named in names, in that order, taking values
// from got; a name got lacks reads 0 in the unit layerUnits gives it.
func fill(names []string, got []metric) []metric {
	out := make([]metric, len(names))
	for i, name := range names {
		out[i] = metric{name: name, unit: layerUnits[name]}
		for _, m := range got {
			if m.name == name {
				out[i] = m
			}
		}
	}
	return out
}

// layerUnits gives the unit of each per-layer metric, so that a layer a
// workload never calls still reports its zero with the right unit.
var layerUnits = map[string]string{
	"engine.loop_ms": "ms", "engine.ns_per_step": "ns", "engine.ns_per_hop": "ns",
	"engine.barrier_wait_ms": "ms", "engine.worker_util": "ratio", "engine.allocs_per_op": "count",
	"engine.hops": "count", "engine.max_queue": "count", "engine.stranded": "count",
	"engine.scaling_2w": "ratio", "traffic.pkts_per_step": "count",
	"traffic.sojourn_p50_steps": "steps", "traffic.sojourn_p99_steps": "steps",
	"service.cache_hit_ratio": "ratio", "service.warm_lease_ratio": "ratio",
	"service.repurposed": "count", "service.cold_builds": "count",
	"service.journal_records_per_job": "count", "service.journal_fsyncs": "count",
	"service.rejected": "count", "service.queue_depth_mean": "count",
	"service.runners_busy_mean": "count", "trace_overhead_pct": "%",
}

// writeText prints the report for a reader: every metric by name, with
// its unit and sample count.
func (r *report) writeText(w io.Writer, traced bool) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, fail_ratio %g\n", r.workload, r.attempted, r.failed, r.failRatio())
	for _, e := range r.errs {
		fmt.Fprintf(w, "   failure: %s\n", e)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "   %s\n", title)
		for _, m := range ms {
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf("n=%d", m.n)
			}
			fmt.Fprintf(w, "     %-34s %16.6g %-6s %s\n", m.name, m.value, m.unit, n)
		}
	}
	if traced {
		section("per-layer (traced run)", r.layer)
	} else {
		section("end-to-end (tracing off)", r.e2e)
	}
	section("detail", r.info)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeJSON prints the report's result line: the end-to-end metrics, or
// the per-layer ones for a traced run.
func (r *report) writeJSON(w io.Writer, traced bool) error {
	ms := r.e2e
	if traced {
		ms = r.layer
	}
	out := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]resultValue, len(ms)),
	}
	for _, m := range ms {
		out.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics. It sorts xs in place; an empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// peakRSSMiB is the process's peak resident set size (getrusage Maxrss,
// which Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
