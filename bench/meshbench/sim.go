package main

import (
	"fmt"
	"runtime"
	"time"
)

// simCounts are the simulated quantities of one operation. They depend
// only on the input, never on timing or worker count, so two runs of one
// input must agree on all of them.
type simCounts struct {
	steps    int   // simulated steps (sort: final clock; routing: makespan)
	hops     int64 // link traversals
	maxQueue int
	stranded int
	sojP50   int64 // sojourn percentiles of a timed route, in steps
	sojP99   int64
}

// opStats is what one simulator operation reports besides its wall time.
type opStats struct {
	simCounts
	routeSteps int           // steps the engine step loop ran
	loop       time.Duration // engine step-loop wall time (RouteResult.Elapsed)
	busy       time.Duration // worker busy time summed over workers
	workers    int
}

// sim is the warm state of a closed-loop simulator workload: one caller
// runs operation after operation on it.
type sim interface {
	// run executes one operation on input in. With tr non-nil it records
	// spans under parent for operation op.
	run(in int, tr *tracer, op, parent int32) (opStats, error)
	// check verifies the last run's output against input in's reference.
	check(in int) error
	close()
}

// simInputs holds a workload's seeded inputs and their references.
type simInputs interface {
	// build makes warm state with an engine pool of the given size. It
	// is the set-up that setup_s times, together with the first run.
	build(workers int) sim
}

// simWorkload is a closed-loop simulator workload.
type simWorkload struct {
	workers int // engine workers of the measured runs
	// inputs is how many seeded inputs a run generates with gen and
	// rotates through, so that its numbers do not hang on one input.
	inputs int
	gen    func(seed uint64, n int) (simInputs, error)
	// scaling, if set, makes the traced run also measure ns per step at
	// 2 workers for engine.scaling_2w.
	scaling bool
	// info adds the workload's own named figures to the text report.
	info func(r *report, ref []*simCounts)
	// layer adds the workload's per-layer figures from the traced part.
	layer func(r *report, s sim, ref []*simCounts, traced []sample)
}

// sample is one measured operation.
type sample struct {
	in  int
	dur time.Duration
	st  opStats
}

// runSim runs a simulator workload: set-up, then a closed measured loop,
// or with tracing the interleaved runs the per-layer view needs.
func runSim(cfg config, name string, wl simWorkload) (*report, error) {
	rep := &report{workload: name}
	ins, err := wl.gen(cfg.seed, wl.inputs)
	if err != nil {
		return nil, err
	}
	ref := make([]*simCounts, wl.inputs)

	// Set up several times, keeping the last state: setup_s is the
	// median, so that one slow page-in does not decide it. Set-up takes a
	// moment only, so it is scaled by the calibration samples taken
	// between the set-ups, not by the whole run's.
	setupCal := newCalibrator()
	var s sim
	setups := make([]float64, cfg.setups)
	for i := range setups {
		if s != nil {
			s.close()
			// Free the old state first, so peak memory is that of one.
			runtime.GC()
		}
		t0 := time.Now()
		s = ins.build(wl.workers)
		st, err := s.run(0, nil, 0, -1)
		setups[i] = time.Since(t0).Seconds()
		rep.tally(verify(s, 0, st, err, ref))
		setupCal.sample()
	}
	defer s.close()

	if !cfg.trace {
		cal := newCalibrator()
		samples := measure(s, cfg.dur, rep, ref, cal)
		durs := make([]time.Duration, len(samples))
		var total time.Duration
		for i, sm := range samples {
			durs[i] = sm.dur
			total += sm.dur
		}
		ms := millis(durs)
		p50, setup := quantile(ms, 0.5), quantile(setups, 0.5)
		rep.e2e = []metric{
			{name: "op_ms_p50_norm", unit: "ms", value: cal.normalize(p50), n: len(ms)},
			{name: "sim_steps", unit: "steps", value: medianSteps(ref)},
			{name: "setup_s", unit: "s", value: setupCal.normalize(setup), n: len(setups)},
			{name: "peak_rss_mb", unit: "MiB", value: peakRSSMiB()},
		}
		// The raw times, the tail and the throughput are reported, not
		// gated: on a shared machine their run-to-run spread is wider than
		// any useful bound.
		rep.info = append(rep.info,
			metric{name: "op_ms_p50", unit: "ms", value: p50, n: len(ms)},
			metric{name: "setup_s.raw", unit: "s", value: setup, n: len(setups)},
			metric{name: "cal_ms_p50", unit: "ms", value: cal.median(), n: len(cal.ms)},
			metric{name: "op_ms_p90", unit: "ms", value: quantile(ms, 0.9), n: len(ms)},
			metric{name: "ops_per_s", unit: "1/s", value: float64(len(samples)) / total.Seconds(), n: len(ms)},
		)
		if wl.info != nil {
			wl.info(rep, ref)
		}
		return rep, nil
	}

	// The traced run interleaves untraced and traced operations, and for
	// scaling operations on a second state with a 2-worker pool, so that
	// drift in the machine's speed during the run biases none of the
	// comparisons between them. It too ends on a whole rotation.
	variants := []sim{s, s}
	if wl.scaling {
		s2 := ins.build(2)
		defer s2.close()
		st, err := s2.run(0, nil, 0, -1)
		rep.tally(verify(s2, 0, st, err, ref))
		variants = append(variants, s2)
	}
	tr := newTracer()
	runs := make([][]sample, len(variants))
	var mallocs uint64
	start := time.Now()
	for i := 0; i%(wl.inputs*len(variants)) != 0 || time.Since(start) < cfg.dur; i++ {
		v := i % len(variants)
		in := (i / len(variants)) % wl.inputs
		var vtr *tracer
		if v == 1 {
			vtr = tr
		}
		var m0, m1 runtime.MemStats
		if v == 0 {
			runtime.ReadMemStats(&m0)
		}
		sm, err := timeOp(variants[v], in, vtr, int32(len(runs[v])))
		if v == 0 {
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
		}
		rep.tally(verify(variants[v], in, sm.st, err, ref))
		runs[v] = append(runs[v], sm)
	}
	untraced, traced := runs[0], runs[1]

	rep.layer = append(engineLayer(traced),
		metric{name: "engine.allocs_per_op", unit: "count", value: float64(mallocs) / float64(len(untraced)), n: len(untraced)},
		metric{name: "engine.hops", unit: "count", value: meanOverInputs(ref, func(c *simCounts) float64 { return float64(c.hops) })},
		metric{name: "engine.max_queue", unit: "count", value: maxOverInputs(ref, func(c *simCounts) float64 { return float64(c.maxQueue) })},
		metric{name: "engine.stranded", unit: "count", value: meanOverInputs(ref, func(c *simCounts) float64 { return float64(c.stranded) })},
		metric{name: "trace_overhead_pct", unit: "%", value: overheadPct(traced, untraced), n: len(traced)},
	)
	if wl.scaling {
		one, two := nsPerStep(untraced), nsPerStep(runs[2])
		rep.layer = append(rep.layer, metric{name: "engine.scaling_2w", unit: "ratio", value: one / two, n: len(runs[2])})
		rep.info = append(rep.info,
			metric{name: "engine.ns_per_step_1w", unit: "ns", value: one, n: len(untraced)},
			metric{name: "engine.ns_per_step_2w", unit: "ns", value: two, n: len(runs[2])},
			metric{name: "nproc", unit: "count", value: float64(runtime.NumCPU())},
			metric{name: "gomaxprocs", unit: "count", value: float64(runtime.GOMAXPROCS(0))},
		)
	}
	if wl.layer != nil {
		wl.layer(rep, s, ref, traced)
	}
	rep.layer = fill(layerNames, rep.layer)
	rep.info = append(rep.info, metric{name: "sim_steps", unit: "steps", value: medianSteps(ref)})
	rep.info = append(rep.info, tr.selfMetrics(len(traced))...)
	if err := tr.write(cfg.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.info = append(rep.info, metric{name: "spans", unit: "count", value: float64(len(tr.spans))})
	return rep, nil
}

// verify checks one operation: its run error, its output against the
// input's reference, and its simulated counts against the first run of
// the same input.
func verify(s sim, in int, st opStats, err error, ref []*simCounts) error {
	if err != nil {
		return err
	}
	if err := s.check(in); err != nil {
		return err
	}
	if ref[in] == nil {
		c := st.simCounts
		ref[in] = &c
	} else if *ref[in] != st.simCounts {
		return fmt.Errorf("input %d: simulated counts %+v differ from an earlier run's %+v", in, st.simCounts, *ref[in])
	}
	return nil
}

// measure runs operations on s for d, rotating through the inputs and
// finishing the last rotation, so every input runs equally often; it
// checks each operation, and samples cal after it, outside its timed
// region.
func measure(s sim, d time.Duration, rep *report, ref []*simCounts, cal *calibrator) []sample {
	var out []sample
	start := time.Now()
	for i := 0; i%len(ref) != 0 || time.Since(start) < d; i++ {
		in := i % len(ref)
		sm, err := timeOp(s, in, nil, int32(i))
		rep.tally(verify(s, in, sm.st, err, ref))
		cal.sample()
		out = append(out, sm)
	}
	return out
}

// timeOp runs and times one operation on input in, under a root span
// when tr is non-nil.
func timeOp(s sim, in int, tr *tracer, op int32) (sample, error) {
	root := int32(-1)
	t0 := time.Now()
	if tr != nil {
		root = tr.open("bench.op", t0, -1, op)
	}
	st, err := s.run(in, tr, op, root)
	t1 := time.Now()
	if tr != nil {
		tr.close(root, t1)
	}
	return sample{in: in, dur: t1.Sub(t0), st: st}, err
}

// engineLayer derives the engine's per-layer figures from measured
// operations.
func engineLayer(samples []sample) []metric {
	var loop, busy, capacity time.Duration
	var hops int64
	steps := 0
	for _, sm := range samples {
		loop += sm.st.loop
		busy += sm.st.busy
		capacity += sm.st.loop * time.Duration(sm.st.workers)
		hops += sm.st.hops
		steps += sm.st.routeSteps
	}
	n := float64(len(samples))
	return []metric{
		{name: "engine.loop_ms", unit: "ms", value: float64(loop) / float64(time.Millisecond) / n, n: len(samples)},
		{name: "engine.ns_per_step", unit: "ns", value: float64(loop) / float64(steps), n: len(samples)},
		{name: "engine.ns_per_hop", unit: "ns", value: float64(loop) / float64(hops), n: len(samples)},
		{name: "engine.barrier_wait_ms", unit: "ms", value: float64(capacity-busy) / float64(time.Millisecond) / n, n: len(samples)},
		{name: "engine.worker_util", unit: "ratio", value: float64(busy) / float64(capacity), n: len(samples)},
	}
}

// nsPerStep is the engine step-loop time per simulated step.
func nsPerStep(samples []sample) float64 {
	var loop time.Duration
	steps := 0
	for _, sm := range samples {
		loop += sm.st.loop
		steps += sm.st.routeSteps
	}
	return float64(loop) / float64(steps)
}

// overheadPct is how much slower the median traced operation was than
// the median untraced one, in percent.
func overheadPct(traced, untraced []sample) float64 {
	return 100 * (medianMillis(traced)/medianMillis(untraced) - 1)
}

func medianMillis(samples []sample) float64 {
	durs := make([]time.Duration, len(samples))
	for i, sm := range samples {
		durs[i] = sm.dur
	}
	return quantile(millis(durs), 0.5)
}

// medianSteps is the median over the inputs of their simulated steps.
// A median, because a faulted route's makespan is bimodal: about D when
// no packet strands, several times that when one does.
func medianSteps(ref []*simCounts) float64 {
	var steps []float64
	for _, c := range ref {
		if c != nil {
			steps = append(steps, float64(c.steps))
		}
	}
	return quantile(steps, 0.5)
}

// meanOverInputs averages a simulated count over the inputs, each
// weighted once however often it ran, so the figure depends on the seed
// alone.
func meanOverInputs(ref []*simCounts, f func(*simCounts) float64) float64 {
	sum, n := 0.0, 0
	for _, c := range ref {
		if c != nil {
			sum += f(c)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func maxOverInputs(ref []*simCounts, f func(*simCounts) float64) float64 {
	best := 0.0
	for _, c := range ref {
		if c != nil {
			best = max(best, f(c))
		}
	}
	return best
}
