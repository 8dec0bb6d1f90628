package exp

import (
	"meshsort/internal/core"
	"meshsort/internal/grid"
	"meshsort/internal/index"
	"meshsort/internal/perm"
	"meshsort/internal/route"
	"meshsort/internal/service"
	"meshsort/internal/stats"
	"meshsort/internal/xmath"
)

// E5GreedyMultiPerm measures Lemmas 2.1-2.3: how many simultaneous
// permutations the extended greedy scheme routes distance-optimally.
// The overshoot column is max over packets of (delivery time - its
// source-destination distance); distance-optimal means overshoot stays
// o(n) — watch it jump once k passes the lemma threshold (2d on the
// torus, floor(d/2) conservative / d-ish empirical on the mesh).
func E5GreedyMultiPerm(o Options) *stats.Table {
	t := stats.NewTable(
		"E5 (Lemmas 2.1-2.3) — k simultaneous random permutations under extended greedy routing",
		"network", "threshold", "k", "steps", "maxdist", "overshoot", "over/maxdist", "avg-overshoot", "maxq")
	type netCase struct {
		s         grid.Shape
		b         int
		threshold string
		ks        []int
	}
	cases := []netCase{
		{grid.New(3, 16), 4, "floor(d/2)=1", []int{1, 2, 4, 6, 8}},
		{grid.New(4, 8), 4, "floor(d/2)=2", []int{1, 2, 4, 8}},
		{grid.NewTorus(3, 16), 4, "2d=6", []int{1, 2, 4, 6, 8, 12}},
		{grid.NewTorus(4, 8), 4, "2d=8", []int{1, 4, 8, 12}},
	}
	if o.Quick {
		cases = cases[:2]
	}
	for _, c := range cases {
		for _, k := range c.ks {
			// Direct: k simultaneous permutations have no JobSpec form.
			rep, err := route.MeasureMultiPerm(c.s, k, route.BatchOpts{
				Mode: route.ClassLocalRank, BlockSide: c.b, Seed: o.seed(),
			})
			if err != nil {
				panic(err)
			}
			t.Addf(c.s.String(), c.threshold, k, rep.Steps, rep.MaxDist, rep.MaxOvershoot,
				float64(rep.MaxOvershoot)/float64(rep.MaxDist), rep.AvgOvershoot, rep.MaxQueue)
		}
	}
	return t
}

// E5bUnshuffle repeats E5 with the unshuffle permutation, the
// deterministic substitute of Section 2.1: it should route as
// efficiently as a random permutation.
func E5bUnshuffle(o Options) *stats.Table {
	t := stats.NewTable(
		"E5b (Section 2.1) — unshuffle permutations route like random ones",
		"network", "k", "steps", "maxdist", "overshoot", "maxq")
	for _, c := range []struct {
		s grid.Shape
		b int
	}{
		{grid.New(3, 8), 4}, {grid.NewTorus(3, 8), 4},
	} {
		// Direct: the unshuffle permutation is no JobSpec perm.
		prob := perm.Unshuffle(index.BlockedSnake(c.s, c.b))
		for _, k := range []int{1, 2, 4} {
			rep, err := route.MeasureUnshuffles(c.s, prob, k, route.BatchOpts{
				Mode: route.ClassLocalRank, BlockSide: c.b, Seed: o.seed(),
			})
			if err != nil {
				panic(err)
			}
			t.Addf(c.s.String(), k, rep.Steps, rep.MaxDist, rep.MaxOvershoot, rep.MaxQueue)
		}
	}
	return t
}

// E6TwoPhaseRoute measures Theorems 5.1/5.2: two-phase permutation
// routing against the D + 2nu + o(n) bound, on random and structured
// permutations, next to the plain greedy baseline.
func E6TwoPhaseRoute(o Options) *stats.Table {
	t := stats.NewTable(
		"E6 (Theorems 5.1/5.2) — two-phase permutation routing vs. plain greedy (bound D + 2nu + o(n); nu = n/2 mesh, n/16 torus)",
		"network", "perm", "D", "bound", "two-phase", "2ph/D", "greedy", "greedy/D")
	cases := []service.JobSpec{
		{D: 3, N: 16, B: 4}, {D: 3, N: 32, B: 8}, {D: 3, N: 16, B: 4, Torus: true}, {D: 3, N: 32, B: 8, Torus: true},
	}
	if o.Quick {
		cases = cases[:2]
	}
	for _, spec := range cases {
		spec.Seed = o.seed()
		for _, p := range []string{"random", "reversal", "transpose"} {
			spec.Alg, spec.Perm = service.AlgRoute, p
			two := deliver(spec)
			spec.Alg = service.AlgGreedyRoute
			gr := run(spec)
			D := two.Diameter
			t.Addf(two.Shape, p, D, two.Bound, two.RouteSteps, ratio(two.RouteSteps, D), gr.RouteSteps, ratio(gr.RouteSteps, D))
		}
	}
	return t
}

// E6bMinNu measures Theorem 5.3: the bandwidth-feasible slack nu shrinks
// relative to the network side as the dimension grows, so routing
// approaches D + eps*n.
func E6bMinNu(o Options) *stats.Table {
	t := stats.NewTable(
		"E6b (Theorem 5.3) — minimal feasible slack nu by dimension (mesh, corner-pair worst case)",
		"d", "n", "b", "D", "min-nu", "nu/n", "(D+2nu)/D")
	cases := []sortCase{{2, 8, 2}, {3, 8, 2}, {4, 8, 2}, {5, 8, 2}, {6, 8, 4}}
	if o.Quick {
		cases = cases[:3]
	}
	for _, c := range cases {
		s := c.mesh()
		// Direct: a property of the block geometry, not a run.
		nu := core.MinNu(s, c.b)
		D := s.Diameter()
		t.Addf(c.d, c.n, c.b, D, nu, float64(nu)/float64(c.n), float64(D+2*nu)/float64(D))
	}
	return t
}

// E14Derandomization verifies the claim of Section 2.1: the
// deterministic sort-and-unshuffle algorithms match the performance of
// their randomized Valiant-Brebner-style counterparts. Rows pair each
// deterministic algorithm with its randomized form on the same input.
func E14Derandomization(o Options) *stats.Table {
	t := stats.NewTable(
		"E14 (Section 2.1) — deterministic (sort-and-unshuffle) vs randomized (random intermediates)",
		"task", "network", "variant", "route", "route/D", "merges", "maxq")
	cases := []sortCase{{3, 16, 4}, {3, 32, 8}}
	if o.Quick {
		cases = cases[:1]
	}
	for _, c := range cases {
		shape := c.mesh()
		D := shape.Diameter()
		det := deliver(c.spec(service.AlgSimple, o.keySeed()))
		// Direct, as RandTwoPhaseRoute below: no JobSpec alg is randomized.
		rnd := sortDirect(core.RandSimpleSort, core.Config{Shape: shape, BlockSide: c.b, Seed: o.seed()})
		t.Addf("sort", shape.String(), "deterministic", det.RouteSteps, ratio(det.RouteSteps, D), det.MergeRounds, det.MaxQueue)
		t.Addf("sort", shape.String(), "randomized", rnd.RouteSteps, rnd.RouteRatio(), rnd.MergeRounds, rnd.MaxQueue)

		dr := run(c.spec(service.AlgRoute, o.seed()+5)) // the seed draws only the permutation
		prob := perm.Random(shape, xmath.NewRNG(o.seed()+5))
		rr, err := core.RandTwoPhaseRoute(core.RouteConfig{Shape: shape, BlockSide: c.b, Seed: o.seed()}, prob)
		if err != nil {
			panic(err)
		}
		t.Addf("route", shape.String(), "deterministic", dr.RouteSteps, ratio(dr.RouteSteps, D), "-", dr.MaxQueue)
		t.Addf("route", shape.String(), "randomized", rr.RouteSteps, ratio(rr.RouteSteps, D), "-", rr.MaxQueue)
	}
	return t
}

// E15OfflineRoute makes the paper's off-line routing remark concrete:
// sorting *is* an off-line router, so the 3D/2 + o(n) sorting bound
// carries over to full-information permutation routing. Compare with the
// on-line two-phase bound D + n + o(n) of E6.
func E15OfflineRoute(o Options) *stats.Table {
	t := stats.NewTable(
		"E15 (Section 1.2 remark) — off-line routing by sorting (bound 1.5 x D + o(n))",
		"network", "perm", "D", "route", "route/D", "delivered")
	cases := []sortCase{{3, 16, 4}, {3, 32, 8}}
	if o.Quick {
		cases = cases[:1]
	}
	for _, c := range cases {
		shape := c.mesh()
		cfg := core.Config{Shape: shape, BlockSide: c.b, Seed: o.seed()}
		// Direct: off-line routing by sorting is no JobSpec alg.
		for _, prob := range []perm.Problem{
			perm.Random(shape, xmath.NewRNG(o.seed()+9)),
			perm.Reversal(shape),
			perm.Transpose(shape),
		} {
			res, err := core.RouteBySorting(cfg, prob)
			if err != nil {
				panic(err)
			}
			t.Addf(shape.String(), prob.Name, shape.Diameter(), res.RouteSteps, res.RouteRatio(), res.Sorted)
		}
	}
	return t
}

// E16KKRoutingBisection puts the extended greedy scheme's k-k routing
// next to the model's bisection floor (Section 1.1 context: k-k routing
// has lower bounds kn/2 on the mesh and kn/4 on the torus from the
// bisection width; random instances cross the bisection with about half
// their packets, giving the floors kn/4 and kn/8 shown here). The
// dedicated k >= 4d algorithms matching the floor are other papers'
// results and out of scope; this table shows how far plain extended
// greedy is from the floor on random k-k instances.
func E16KKRoutingBisection(o Options) *stats.Table {
	t := stats.NewTable(
		"E16 (Section 1.1 context) — k-k routing: extended greedy vs diameter and bisection floors (random instances)",
		"network", "k", "steps", "D", "bisection-floor", "steps/floor")
	type netCase struct {
		s grid.Shape
		b int
	}
	cases := []netCase{{grid.New(3, 16), 4}, {grid.NewTorus(3, 16), 4}}
	if o.Quick {
		cases = cases[:1]
	}
	for _, c := range cases {
		for _, k := range []int{1, 2, 4, 8} {
			// Direct: a k-k random instance has no JobSpec form.
			rep, err := route.MeasureMultiPerm(c.s, k, route.BatchOpts{
				Mode: route.ClassLocalRank, BlockSide: c.b, Seed: o.seed(),
			})
			if err != nil {
				panic(err)
			}
			// Expected bisection crossings of a random k-k instance:
			// k*N/2 packets over 2*n^(d-1) directed bisection links
			// (doubled again on the torus by the wrap edges).
			floor := k * c.s.Side / 4
			if c.s.Torus {
				floor = k * c.s.Side / 8
			}
			lower := floor
			if d := c.s.Diameter(); d > lower {
				lower = d
			}
			t.Addf(c.s.String(), k, rep.Steps, c.s.Diameter(), floor,
				float64(rep.Steps)/float64(lower))
		}
	}
	return t
}

// E18QueueBlowup exposes why spreading matters even though plain greedy
// often *finishes* fast on benign permutations (E6): on the engineered
// hot-spot permutation (perm.HotSpot) every packet of a line turns its
// corner at one processor, and plain greedy's queue there grows like n/2
// — violating the multi-packet model's O(1) storage — while both the
// extended greedy classes and the two-phase algorithm keep queues flat.
// Transpose/reversal rows show that greedy's queues stay small on the
// *usual* suspects; the hot spot is what the worst case actually looks
// like.
func E18QueueBlowup(o Options) *stats.Table {
	t := stats.NewTable(
		"E18 — queue growth: plain greedy vs extended greedy vs two-phase (O(1) model audit)",
		"network", "perm", "greedy maxq", "ext-greedy maxq", "two-phase maxq", "greedy steps", "two-phase steps")
	cases := []service.JobSpec{{D: 2, N: 16, B: 4}, {D: 2, N: 32, B: 8}, {D: 2, N: 64, B: 16}, {D: 3, N: 32, B: 8}}
	if o.Quick {
		cases = cases[:2]
	}
	for _, spec := range cases {
		spec.Seed = o.seed()
		for _, p := range []string{"hotspot", "transpose", "reversal"} {
			greedy := spec
			greedy.Alg, greedy.Perm, greedy.Classes = service.AlgGreedyRoute, p, "zero"
			gr := run(greedy)
			greedy.Classes = "local"
			ext := run(greedy)
			spec.Alg, spec.Perm = service.AlgRoute, p
			two := run(spec)
			t.Addf(two.Shape, p, gr.MaxQueue, ext.MaxQueue, two.MaxQueue, gr.RouteSteps, two.RouteSteps)
		}
	}
	return t
}
