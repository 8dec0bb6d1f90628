package main

import (
	"time"

	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
	"meshsort/internal/stats"
	"meshsort/internal/traffic"
	"meshsort/internal/xmath"
)

// Workload shapes (see bench/README.md for why each was chosen).
const (
	sortDim, sortSide, sortBlock = 3, 32, 8 // N = 32768, block side 8
	faultDim, faultSide          = 3, 32
	faultRate                    = 0.01 // share of links permanently down
	trafficDim, trafficSide      = 3, 16
	trafficK                     = 2   // k-relation multiplicity
	trafficRate                  = 2.0 // packets born per simulated step
)

// faulted-route rotates 8 inputs, not 4: a faulted route's makespan
// varies by about 4% from input to input, so the median over 4 inputs
// moves with the seed more than sim_steps' bound allows.
var simWorkloads = map[string]simWorkload{
	"sort":          {workers: 1, inputs: 4, gen: sortInputs, scaling: true, layer: sortLayer},
	"faulted-route": {workers: 2, inputs: 8, gen: faultInputs, info: faultInfo, layer: faultLayer},
	"traffic":       {workers: 1, inputs: 4, gen: trafficInputs, info: trafficInfo, layer: trafficLayer},
}

// ---- sort: warm SimpleSort (Theorem 3.1) ----

type sortIn struct {
	keys []int64
	want string // KeySum of the sorted keys
}

type sortInputSet []sortIn

func sortInputs(seed uint64, n int) (simInputs, error) {
	shape := grid.New(sortDim, sortSide)
	rng := xmath.NewRNG(seed)
	ins := make(sortInputSet, n)
	for i := range ins {
		keys := core.RandomKeys(shape, 1, rng.Uint64())
		ins[i] = sortIn{keys: keys, want: sortedKeySum(keys)}
	}
	return ins, nil
}

// pipeSpans sums one traced operation's pipeline spans by phase kind.
type pipeSpans struct {
	route, loop, oracle, check, tail time.Duration
}

type sortSim struct {
	ins  sortInputSet
	pool *engine.Pool
	cfg  core.Config
	last core.Result

	// Tracing state of the operation in flight: the Observer turns each
	// phase callback into a span running from the previous callback.
	obs    pipeline.Observer
	tr     *tracer
	op     int32
	parent int32
	prev   time.Time
	spans  pipeSpans
	traced []pipeSpans // per traced operation
}

func (ins sortInputSet) build(workers int) sim {
	shape := grid.New(sortDim, sortSide)
	pool := engine.NewPool(workers)
	runner := pipeline.New(pipeline.Config{Shape: shape, Pool: pool})
	s := &sortSim{ins: ins, pool: pool, cfg: core.Config{
		Shape: shape, BlockSide: sortBlock, Seed: 1, Pool: pool, Runner: runner,
	}}
	s.obs = s.observe
	return s
}

func (s *sortSim) observe(ph pipeline.PhaseStat) {
	now := time.Now()
	i := s.tr.add("pipeline."+ph.Name, s.prev, now, s.parent, s.op)
	d := now.Sub(s.prev)
	switch ph.Kind {
	case pipeline.KindRoute:
		loop := loopTime(ph)
		s.tr.add("engine.loop", now.Add(-loop), now, i, s.op)
		s.spans.route += d
		s.spans.loop += loop
	case pipeline.KindCheck:
		s.spans.check += d
	default:
		s.spans.oracle += d
	}
	s.prev = now
}

// loopTime recovers a route phase's step-loop wall time from its stats.
func loopTime(ph pipeline.PhaseStat) time.Duration {
	if ph.StepsPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(ph.Steps) / ph.StepsPerSec * float64(time.Second))
}

func (s *sortSim) run(in int, tr *tracer, op, parent int32) (opStats, error) {
	cfg := s.cfg
	if tr != nil {
		cfg.Observer = s.obs
		s.tr, s.op, s.parent, s.spans = tr, op, parent, pipeSpans{}
		s.prev = time.Now()
	}
	res, err := core.SimpleSort(cfg, s.ins[in].keys)
	if tr != nil {
		now := time.Now()
		tr.add("pipeline.tail", s.prev, now, parent, op)
		s.spans.tail = now.Sub(s.prev)
		s.traced = append(s.traced, s.spans)
	}
	s.last = res
	st := opStats{workers: s.pool.Workers()}
	st.steps = res.TotalSteps
	st.maxQueue = res.MaxQueue
	st.stranded = res.Stranded
	for _, ph := range res.Phases {
		if ph.Kind != pipeline.KindRoute {
			continue
		}
		loop := loopTime(ph)
		st.routeSteps += ph.Steps
		st.hops += ph.Hops
		st.loop += loop
		st.busy += time.Duration(ph.WorkerUtil * float64(st.workers) * float64(loop))
	}
	return st, err
}

func (s *sortSim) check(in int) error { return checkSort(s.last, s.ins[in].want) }

func (s *sortSim) close() { s.pool.Close() }

func sortLayer(r *report, sm sim, _ []*simCounts, _ []sample) {
	s := sm.(*sortSim)
	var sum pipeSpans
	for _, p := range s.traced {
		sum.route += p.route
		sum.loop += p.loop
		sum.oracle += p.oracle
		sum.check += p.check
		sum.tail += p.tail
	}
	n := len(s.traced)
	per := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(max(n, 1)) }
	r.info = append(r.info,
		metric{name: "pipeline.route_ms", unit: "ms", value: per(sum.route), n: n},
		metric{name: "pipeline.prepare_ms", unit: "ms", value: per(sum.route - sum.loop), n: n},
		metric{name: "pipeline.oracle_ms", unit: "ms", value: per(sum.oracle), n: n},
		metric{name: "pipeline.check_ms", unit: "ms", value: per(sum.check), n: n},
		metric{name: "pipeline.tail_ms", unit: "ms", value: per(sum.tail), n: n},
	)
}

// ---- faulted-route: greedy routing around 1% failed links ----

type faultIn struct {
	src, dst []int
	plan     *engine.FaultPlan
	pol      engine.Policy
	atSource int // packets whose destination is their source
}

type faultInputSet []faultIn

func faultInputs(seed uint64, n int) (simInputs, error) {
	shape := grid.New(faultDim, faultSide)
	rng := xmath.NewRNG(seed)
	ins := make(faultInputSet, n)
	for i := range ins {
		prob := perm.Random(shape, xmath.NewRNG(rng.Uint64()))
		plan := engine.RandomFaultPlan(shape, faultRate, rng.Uint64())
		in := faultIn{src: prob.Src, dst: prob.Dst, plan: plan, pol: route.NewFaultGreedy(shape, plan)}
		for j := range prob.Src {
			if prob.Src[j] == prob.Dst[j] {
				in.atSource++
			}
		}
		ins[i] = in
	}
	return ins, nil
}

// netSim is the warm network the two routing workloads run on.
type netSim struct {
	shape grid.Shape
	pool  *engine.Pool
	net   *engine.Net
	last  engine.RouteResult

	reset, fill []time.Duration // per traced operation
}

func newNetSim(shape grid.Shape, workers int) netSim {
	pool := engine.NewPool(workers)
	net := engine.New(shape)
	net.Pool = pool
	return netSim{shape: shape, pool: pool, net: net}
}

// route runs one operation: Reset, fill (which loads the packets), and
// Route. Traced, each becomes a span; fillSpan names fill's.
func (s *netSim) route(fillSpan string, fill func(), pol engine.Policy, opts engine.RouteOpts, tr *tracer, op, parent int32) (opStats, error) {
	t0 := time.Now()
	s.net.Reset(s.shape)
	t1 := time.Now()
	fill()
	t2 := time.Now()
	res, err := s.net.Route(pol, opts)
	t3 := time.Now()
	if tr != nil {
		tr.add("engine.reset", t0, t1, parent, op)
		tr.add(fillSpan, t1, t2, parent, op)
		r := tr.add("engine.route", t2, t3, parent, op)
		tr.add("engine.loop", t3.Add(-res.Elapsed), t3, r, op)
		s.reset = append(s.reset, t1.Sub(t0))
		s.fill = append(s.fill, t2.Sub(t1))
	}
	s.last = res
	st := opStats{routeSteps: res.Steps, loop: res.Elapsed, busy: res.WorkerBusy, workers: res.Workers}
	st.steps = res.Steps
	st.hops = res.Hops
	st.maxQueue = res.MaxQueue
	st.stranded = len(res.Stranded)
	st.sojP50 = res.Sojourn.P50
	st.sojP99 = res.Sojourn.P99
	return st, err
}

func (s *netSim) close() { s.pool.Close() }

type faultSim struct {
	netSim
	ins  faultInputSet
	pkts []*engine.Packet
}

func (ins faultInputSet) build(workers int) sim {
	shape := grid.New(faultDim, faultSide)
	return &faultSim{netSim: newNetSim(shape, workers), ins: ins, pkts: make([]*engine.Packet, shape.N())}
}

func (s *faultSim) run(in int, tr *tracer, op, parent int32) (opStats, error) {
	x := s.ins[in]
	inject := func() {
		for i := range s.pkts {
			p := s.net.NewPacket(int64(i), x.src[i])
			p.Dst = x.dst[i]
			p.Class = i % s.shape.Dim
			s.pkts[i] = p
		}
		s.net.Inject(s.pkts)
	}
	return s.route("engine.inject", inject, x.pol, engine.RouteOpts{Faults: x.plan}, tr, op, parent)
}

func (s *faultSim) check(in int) error {
	return checkDelivery(s.last, s.net, len(s.pkts), s.ins[in].atSource)
}

func faultInfo(r *report, ref []*simCounts) {
	r.info = append(r.info, metric{name: "stranded_pkts", unit: "count",
		value: meanOverInputs(ref, func(c *simCounts) float64 { return float64(c.stranded) })})
}

func faultLayer(r *report, sm sim, _ []*simCounts, _ []sample) {
	s := sm.(*faultSim)
	r.info = append(r.info,
		metric{name: "engine.reset_ms", unit: "ms", value: quantile(millis(s.reset), 0.5), n: len(s.reset)},
		metric{name: "engine.inject_ms", unit: "ms", value: quantile(millis(s.fill), 0.5), n: len(s.fill)},
	)
}

// ---- traffic: timed k-relation trickled into a warm mesh ----

type trafficIn struct {
	pairs    []traffic.Pair
	clocks   []int32 // arrival stamps, nondecreasing
	atSource int
}

type trafficInputSet []trafficIn

func trafficInputs(seed uint64, n int) (simInputs, error) {
	shape := grid.New(trafficDim, trafficSide)
	rng := xmath.NewRNG(seed)
	ins := make(trafficInputSet, n)
	for i := range ins {
		load := traffic.Load{Demand: traffic.KRelation, K: trafficK, Seed: rng.Uint64()}
		pairs, err := load.Pairs(shape.N())
		if err != nil {
			return nil, err
		}
		sched := traffic.Schedule{Arrival: traffic.Trickle, Rate: trafficRate}
		clocks, err := sched.Stamps(len(pairs), 0)
		if err != nil {
			return nil, err
		}
		in := trafficIn{pairs: pairs, clocks: clocks}
		for _, p := range pairs {
			if p.Src == p.Dst {
				in.atSource++
			}
		}
		ins[i] = in
	}
	return ins, nil
}

type trafficSim struct {
	netSim
	ins  trafficInputSet
	arr  *engine.Arrivals
	hist stats.Hist
	pol  engine.Policy
}

func (ins trafficInputSet) build(workers int) sim {
	shape := grid.New(trafficDim, trafficSide)
	n := len(ins[0].pairs)
	return &trafficSim{
		netSim: newNetSim(shape, workers), ins: ins, pol: route.NewGreedy(shape),
		arr: &engine.Arrivals{Clocks: make([]int32, 0, n), IDs: make([]int32, 0, n)},
	}
}

func (s *trafficSim) run(in int, tr *tracer, op, parent int32) (opStats, error) {
	x := s.ins[in]
	plan := func() {
		s.arr.Clocks = s.arr.Clocks[:0]
		s.arr.IDs = s.arr.IDs[:0]
		for i, pr := range x.pairs {
			p := s.net.NewPacket(int64(i), pr.Src)
			p.Dst = pr.Dst
			p.Class = i % s.shape.Dim
			s.arr.Add(x.clocks[i], p)
		}
		s.arr.Rewind()
		s.hist.Reset()
	}
	return s.route("traffic.plan", plan, s.pol, engine.RouteOpts{Arrivals: s.arr, Sojourn: &s.hist}, tr, op, parent)
}

func (s *trafficSim) check(in int) error {
	x := s.ins[in]
	if err := checkDelivery(s.last, s.net, len(x.pairs), x.atSource); err != nil {
		return err
	}
	return checkSojourn(s.last, s.hist.Count())
}

func trafficInfo(r *report, ref []*simCounts) {
	r.info = append(r.info,
		metric{name: "sojourn_p50_steps", unit: "steps", value: meanOverInputs(ref, func(c *simCounts) float64 { return float64(c.sojP50) })},
		metric{name: "sojourn_p99_steps", unit: "steps", value: meanOverInputs(ref, func(c *simCounts) float64 { return float64(c.sojP99) })},
	)
}

func trafficLayer(r *report, sm sim, ref []*simCounts, traced []sample) {
	s := sm.(*trafficSim)
	r.layer = append(r.layer,
		metric{name: "traffic.pkts_per_step", unit: "count", value: meanOverInputs(ref, func(c *simCounts) float64 { return float64(c.hops) / float64(c.steps) })},
		metric{name: "traffic.sojourn_p50_steps", unit: "steps", value: meanOverInputs(ref, func(c *simCounts) float64 { return float64(c.sojP50) })},
		metric{name: "traffic.sojourn_p99_steps", unit: "steps", value: meanOverInputs(ref, func(c *simCounts) float64 { return float64(c.sojP99) })},
	)
	r.info = append(r.info,
		metric{name: "traffic.plan_ms", unit: "ms", value: quantile(millis(s.fill), 0.5), n: len(s.fill)},
		metric{name: "traffic.ns_per_step", unit: "ns", value: nsPerStep(traced), n: len(traced)},
	)
}
