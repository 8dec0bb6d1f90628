package meshsort_test

// One benchmark per experiment of EXPERIMENTS.md (E1-E19; see DESIGN.md
// section 4 for the index). Each benchmark runs the experiment workload
// per iteration and reports the paper-relevant quantity — simulated
// steps normalized by the diameter — as a custom metric next to the
// wall-clock numbers:
//
//	go test -bench=. -benchmem
//
// The full sweeps behind EXPERIMENTS.md are regenerated by
// `go run ./cmd/experiments`; benchmarks use a fixed mid-size instance
// per experiment so `-bench` stays fast enough to run routinely.

import (
	"fmt"
	"testing"

	"meshsort/internal/baseline"
	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/exp"
	"meshsort/internal/grid"
	"meshsort/internal/lb"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
	"meshsort/internal/xmath"
)

func benchSort(b *testing.B, fn func(core.Config, []int64) (core.Result, error), cfg core.Config) {
	b.Helper()
	keys := core.RandomKeys(cfg.Shape, maxi(1, cfg.K), 7)
	var last core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fn(cfg, keys)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.RouteSteps)/float64(cfg.Shape.Diameter()), "route-steps/D")
	b.ReportMetric(float64(last.TotalSteps), "sim-steps")
}

func maxi(a, c int) int {
	if a > c {
		return a
	}
	return c
}

// BenchmarkE1SimpleSortMesh — Theorem 3.1 (bound 1.5 x D + o(n)).
func BenchmarkE1SimpleSortMesh(b *testing.B) {
	benchSort(b, core.SimpleSort, core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1})
}

// BenchmarkE2CopySortMesh — Theorem 3.2 (bound 1.25 x D + o(n), d >= 8).
func BenchmarkE2CopySortMesh(b *testing.B) {
	benchSort(b, core.CopySort, core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1})
}

// BenchmarkE3TorusSort — Theorem 3.3 (bound 1.5 x D + o(n), D = dn/2).
func BenchmarkE3TorusSort(b *testing.B) {
	benchSort(b, core.TorusSort, core.Config{Shape: grid.NewTorus(3, 16), BlockSide: 4, Seed: 1})
}

// BenchmarkE4BaselineFullSort — the previous best (2D + o(n)); compare
// its route-steps/D metric with E1/E2.
func BenchmarkE4BaselineFullSort(b *testing.B) {
	benchSort(b, core.FullSort, core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1})
}

// BenchmarkE4BaselineOddEven — the Theta(N) classic on a small mesh.
func BenchmarkE4BaselineOddEven(b *testing.B) {
	s := grid.New(3, 8)
	keys := core.RandomKeys(s, 1, 7)
	var steps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := baseline.RunOddEven(s, keys, baseline.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps)/float64(s.Diameter()), "route-steps/D")
}

// BenchmarkE4BaselineShearSort — the fully-simulated whole-mesh
// shearsort baseline, run through the pipeline runner on a shared
// persistent worker pool so its wall-clock cost is comparable with the
// SimpleSort benchmarks (which pay the same pool costs per phase).
func BenchmarkE4BaselineShearSort(b *testing.B) {
	s := grid.New(3, 8)
	keys := core.RandomKeys(s, 1, 7)
	pool := engine.NewPool(0)
	defer pool.Close()
	var steps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := baseline.ShearSort(s, keys, baseline.RunOpts{Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Sorted {
			b.Fatal("shearsort did not sort")
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps)/float64(s.Diameter()), "route-steps/D")
}

// BenchmarkE5GreedyMultiPerm — Lemmas 2.1-2.3: 2 permutations on a
// 4-dimensional mesh (within the floor(d/2) budget).
func BenchmarkE5GreedyMultiPerm(b *testing.B) {
	s := grid.New(4, 8)
	var rep route.OptimalityReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := route.MeasureMultiPerm(s, 2, route.BatchOpts{Mode: route.ClassLocalRank, BlockSide: 4, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.ReportMetric(float64(rep.MaxOvershoot), "max-overshoot")
	b.ReportMetric(float64(rep.Steps)/float64(s.Diameter()), "route-steps/D")
}

// BenchmarkE6TwoPhaseRoute — Theorem 5.1 (bound D + n + o(n)).
func BenchmarkE6TwoPhaseRoute(b *testing.B) {
	s := grid.New(3, 16)
	prob := perm.Reversal(s)
	var res core.RouteAlgResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.TwoPhaseRoute(core.RouteConfig{Shape: s, BlockSide: 4, Seed: 1}, prob)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.RouteSteps)/float64(s.Diameter()), "route-steps/D")
	b.ReportMetric(float64(res.Bound)/float64(s.Diameter()), "bound/D")
}

// BenchmarkE7DiamondBounds — Lemma 4.1 exact counting at d=128.
func BenchmarkE7DiamondBounds(b *testing.B) {
	var dm lb.Diamond
	for i := 0; i < b.N; i++ {
		dm = lb.NewDiamond(128, 8, 0.2)
	}
	b.ReportMetric(dm.VolTightness(), "vol-tightness")
}

// BenchmarkE8LowerBounds — Theorem 4.1 d0 search at eps = 0.1.
func BenchmarkE8LowerBounds(b *testing.B) {
	var d0 int
	for i := 0; i < b.N; i++ {
		d, _, ok := lb.Theorem41D0(0.1, 8, 512)
		if !ok {
			b.Fatal("no d0 found")
		}
		d0 = d
	}
	b.ReportMetric(float64(d0), "d0")
}

// BenchmarkE9Selection — Section 4.3 upper bound (~1.0 x D).
func BenchmarkE9Selection(b *testing.B) {
	cfg := core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1}
	keys := core.RandomKeys(cfg.Shape, 1, 7)
	var res core.SelectResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.Select(cfg, keys, cfg.Shape.N()/2)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.RouteSteps)/float64(cfg.Shape.Diameter()), "route-steps/D")
}

// BenchmarkE10KKSort — Corollary 3.1.1 (k-k sorting, k=2).
func BenchmarkE10KKSort(b *testing.B) {
	benchSort(b, core.SimpleSort, core.Config{Shape: grid.New(3, 16), BlockSide: 4, K: 2, Seed: 1})
}

// BenchmarkE11CenterRadius — Corollary 3.1.2 (quarter-size center).
func BenchmarkE11CenterRadius(b *testing.B) {
	cfg := core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1}
	bs := grid.Blocks(cfg.Shape, cfg.BlockSide)
	cfg.CenterCount = bs.Count() / 4
	benchSort(b, core.SimpleSort, cfg)
}

// BenchmarkE12QueueAudit — peak queue across a SimpleSort run (the
// multi-packet model's O(1) storage claim).
func BenchmarkE12QueueAudit(b *testing.B) {
	cfg := core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1}
	keys := core.RandomKeys(cfg.Shape, 1, 7)
	var q int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.SimpleSort(cfg, keys)
		if err != nil {
			b.Fatal(err)
		}
		q = res.MaxQueue
	}
	b.ReportMetric(float64(q), "max-queue")
}

// BenchmarkE13AltEstimator — the estimator ablation (extension): the
// bias-corrected destination estimate at alpha = 1/2.
func BenchmarkE13AltEstimator(b *testing.B) {
	benchSort(b, core.SimpleSort, core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1, AltEstimator: true})
}

// BenchmarkE14RandSimpleSort — the randomized form of SimpleSort
// (Section 2.1); compare its metrics with BenchmarkE1SimpleSortMesh to
// see the derandomization claim.
func BenchmarkE14RandSimpleSort(b *testing.B) {
	benchSort(b, core.RandSimpleSort, core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1})
}

// BenchmarkE15OfflineRoute — off-line routing by sorting (the Section
// 1.2 remark; bound 1.5 x D + o(n)).
func BenchmarkE15OfflineRoute(b *testing.B) {
	cfg := core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1}
	prob := perm.Reversal(cfg.Shape)
	var res core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.RouteBySorting(cfg, prob)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.RouteSteps)/float64(cfg.Shape.Diameter()), "route-steps/D")
}

// BenchmarkE17RealLocalSort — SimpleSort with fully simulated in-mesh
// shearsort local phases instead of the oracle cost model.
func BenchmarkE17RealLocalSort(b *testing.B) {
	benchSort(b, core.SimpleSort, core.Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 1, RealLocalSort: true})
}

// BenchmarkE19FaultTolerance — the robustness extension: greedy routing
// of a random permutation with 1% of the links permanently failed and
// the fault-aware detour policy engaged. The stranded metric should
// read 0 — the detours absorb this failure rate.
func BenchmarkE19FaultTolerance(b *testing.B) {
	s := grid.New(3, 16)
	plan := engine.RandomFaultPlan(s, 0.01, 29)
	prob := perm.Random(s, xmath.NewRNG(3))
	var res engine.RouteResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := route.RunProblem(s, prob, route.BatchOpts{
			Mode: route.ClassLocalRank, BlockSide: 4, Seed: 1, Faults: plan,
		})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.Steps)/float64(s.Diameter()), "route-steps/D")
	b.ReportMetric(float64(len(res.Stranded)), "stranded")
}

// BenchmarkEngineStep measures the raw simulator throughput: one
// synchronous step of a 3-dimensional mesh with one moving packet per
// processor (the inner loop everything above is built on). The headline
// number is ns/step — wall-clock cost of one simulated step of the
// 16^3 mesh — alongside the steps/sec and packets-moved/step counters
// that Route itself reports.
func BenchmarkEngineStep(b *testing.B) {
	s := grid.New(3, 16)
	prob := perm.Random(s, xmath.NewRNG(3))
	var steps int
	var hops int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := route.RunProblem(s, prob, route.BatchOpts{Mode: route.ClassLocalRank, BlockSide: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		hops += res.Hops
	}
	b.StopTimer()
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		b.ReportMetric(float64(hops)/float64(steps), "packets/step")
	}
}

// BenchmarkEngineSteadyState is the zero-allocation claim in benchmark
// form: one warm network is Reset and re-routed per iteration, so after
// the first iteration every arena chunk, queue, and piece of step
// scratch is already grown and `-benchmem` must report 0 allocs/op.
// (BenchmarkEngineStep above builds a fresh network per iteration and
// measures cold-path throughput; this one isolates the steady state.)
func BenchmarkEngineSteadyState(b *testing.B) {
	s := grid.New(3, 16)
	pool := engine.NewPool(0)
	defer pool.Close()
	net := engine.New(s)
	net.Pool = pool
	prob := perm.Random(s, xmath.NewRNG(3))
	pkts := make([]*engine.Packet, prob.Size())
	var pol engine.Policy = route.NewGreedy(s)
	run := func() int {
		net.Reset(s)
		for i := range pkts {
			p := net.NewPacket(int64(i), prob.Src[i])
			p.Dst = prob.Dst[i]
			p.Class = i % s.Dim
			pkts[i] = p
		}
		net.Inject(pkts)
		res, err := net.Route(pol, engine.RouteOpts{})
		if err != nil {
			b.Fatal(err)
		}
		return res.Steps
	}
	run() // warm-up: grow the arena, queues, and step scratch
	var steps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps += run()
	}
	b.StopTimer()
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
}

// BenchmarkLadderGreedyRoute is the million-processor benchmark ladder,
// an ungated developer tool (its upper rungs are the only measurements
// above meshbench's N = 32,768): dimension-order greedy routing of a seeded random
// permutation on the d=3 mesh at n = 16, 32, 64, and 128 — N from 4096
// to ~2.1M processors. Each rung routes on one warm network per
// iteration (Reset + inject + route, the BenchmarkEngineSteadyState
// pattern), so after the first iteration `-benchmem` must report 0
// allocs/op at every rung. Reported metrics: ns/step (wall cost of one
// simulated step), sim-steps (the rung's phase length), and
// route-steps/D (steps against the D + o(n) greedy reference; D = 3(n-1)
// on the mesh). The two top rungs are skipped under -short — n=128
// routes two million packets ~381 hops each per iteration.
//
//	go test -run xxx -bench BenchmarkLadderGreedyRoute -benchmem -benchtime 1x
func BenchmarkLadderGreedyRoute(b *testing.B) {
	for _, side := range []int{16, 32, 64, 128} {
		side := side
		b.Run(fmt.Sprintf("n=%d", side), func(b *testing.B) {
			if testing.Short() && side > 32 {
				b.Skipf("n=%d rung skipped in -short mode", side)
			}
			s := grid.New(3, side)
			pool := engine.NewPool(0)
			defer pool.Close()
			net := engine.New(s)
			net.Pool = pool
			prob := perm.Random(s, xmath.NewRNG(3))
			pkts := make([]*engine.Packet, prob.Size())
			var pol engine.Policy = route.NewGreedy(s)
			run := func() int {
				net.Reset(s)
				for i := range pkts {
					p := net.NewPacket(int64(i), prob.Src[i])
					p.Dst = prob.Dst[i]
					p.Class = i % s.Dim
					pkts[i] = p
				}
				net.Inject(pkts)
				res, err := net.Route(pol, engine.RouteOpts{})
				if err != nil {
					b.Fatal(err)
				}
				return res.Steps
			}
			run() // warm-up: grow the arena, queues, and step scratch
			var steps int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steps += run()
			}
			b.StopTimer()
			if steps > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
				b.ReportMetric(float64(steps)/float64(b.N), "sim-steps")
				b.ReportMetric(float64(steps)/float64(b.N)/float64(s.Diameter()), "route-steps/D")
			}
		})
	}
}

// BenchmarkLadderSimpleSort is the full-sort benchmark ladder, an
// ungated developer tool like BenchmarkLadderGreedyRoute: the complete SimpleSort pipeline — block-local sorts,
// two greedy routing phases, and the odd-even merge cleanup — on the
// d=3 mesh at n = 16, 32, and 64 (N up to 262,144), with block side
// n/4. Each rung re-runs one warm runner per iteration (Reset + inject
// + sort, the steady-state pattern of the service layer's runner
// leasing), so after the first iteration `-benchmem` must report 0
// allocs/op: local phases, verification sweeps, and packet injection
// all draw from runner-owned reusable scratch. Reported metrics:
// ns/step (wall cost of one simulated step, route and oracle phases
// together), sim-steps (the rung's simulated clock; identical at every
// pool size), and route-steps/D. The n=64 rung is skipped under -short
// (it routes 262k packets through two ~140-step phases per iteration).
//
//	go test -run xxx -bench BenchmarkLadderSimpleSort -benchmem -benchtime 1x
func BenchmarkLadderSimpleSort(b *testing.B) {
	for _, side := range []int{16, 32, 64} {
		side := side
		b.Run(fmt.Sprintf("n=%d", side), func(b *testing.B) {
			if testing.Short() && side > 32 {
				b.Skipf("n=%d rung skipped in -short mode", side)
			}
			s := grid.New(3, side)
			pool := engine.NewPool(0)
			defer pool.Close()
			runner := pipeline.New(pipeline.Config{Shape: s, Pool: pool})
			cfg := core.Config{Shape: s, BlockSide: side / 4, Seed: 1, Pool: pool, Runner: runner}
			keys := core.RandomKeys(s, 1, 7)
			var last core.Result
			run := func() {
				res, err := core.SimpleSort(cfg, keys)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Sorted {
					b.Fatal("SimpleSort did not sort")
				}
				last = res
			}
			run() // warm-up: grow the runner scratch, arena, and queues
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			if last.TotalSteps > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(last.TotalSteps), "ns/step")
				b.ReportMetric(float64(last.TotalSteps), "sim-steps")
				b.ReportMetric(float64(last.RouteSteps)/float64(s.Diameter()), "route-steps/D")
			}
		})
	}
}

// BenchmarkExperimentsQuick regenerates the full quick experiment suite
// (what `cmd/experiments -quick` prints), as an end-to-end benchmark.
func BenchmarkExperimentsQuick(b *testing.B) {
	o := exp.Options{Quick: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		_ = exp.E1SimpleSortMesh(o)
		_ = exp.E4Baselines(o)
		_ = exp.E12QueueAudit(o)
	}
}
