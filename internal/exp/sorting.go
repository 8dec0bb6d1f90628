package exp

import (
	"fmt"

	"meshsort/internal/baseline"
	"meshsort/internal/core"
	"meshsort/internal/grid"
	"meshsort/internal/service"
	"meshsort/internal/stats"
)

// E1SimpleSortMesh measures Theorem 3.1: SimpleSort's routing steps
// against the 3D/2 + o(n) bound across dimensions and side lengths.
func E1SimpleSortMesh(o Options) *stats.Table {
	t := stats.NewTable(
		"E1 (Theorem 3.1) — SimpleSort on the d-dimensional mesh: bound 1.5 x D + o(n), no copies",
		"d", "n", "b", "N", "D", "route", "route/D", "oracle(o(n))", "merges", "maxq")
	for _, c := range meshSweep(o.Quick) {
		res := deliver(c.spec(service.AlgSimple, o.keySeed()))
		t.Addf(c.d, c.n, c.b, res.N, res.Diameter,
			res.RouteSteps, ratio(res.RouteSteps, res.Diameter), res.OracleSteps, res.MergeRounds, res.MaxQueue)
	}
	return t
}

// copySortTable is the table shape of E2 and E3: routing steps and the
// largest packet-copy distance after the center sort, both against D.
func copySortTable(title string) (*stats.Table, func(c sortCase, D, route, pairDist, merges, maxq int)) {
	t := stats.NewTable(title, "d", "n", "b", "D", "route", "route/D", "pairdist", "pairdist/D", "merges", "maxq")
	return t, func(c sortCase, D, route, pairDist, merges, maxq int) {
		t.Addf(c.d, c.n, c.b, D, route, ratio(route, D), pairDist, ratio(pairDist, D), merges, maxq)
	}
}

// E2CopySortMesh measures Theorem 3.2: CopySort against 5D/4 + o(n).
// The theorem's routing lemma needs d >= 8; the d=8 row uses the largest
// affordable side (n=4, where block granularity is coarse), and the
// low-d rows show the measured behaviour outside the theorem's regime.
func E2CopySortMesh(o Options) *stats.Table {
	t, row := copySortTable("E2 (Theorem 3.2) — CopySort on the d-dimensional mesh: bound 1.25 x D + o(n) for d >= 8, one copy per packet")
	for _, c := range meshSweep(o.Quick) {
		res := deliver(c.spec(service.AlgCopy, o.keySeed()))
		row(c, res.Diameter, res.RouteSteps, res.MaxPairDist, res.MergeRounds, res.MaxQueue)
	}
	if !o.Quick {
		// Direct: d=8 is above service.MaxDim, the JobSpec dimension ceiling.
		c := sortCase{8, 4, 2}
		res := sortDirect(core.CopySort, core.Config{Shape: c.mesh(), BlockSide: c.b, Seed: o.seed()})
		row(c, c.mesh().Diameter(), res.RouteSteps, res.MaxPairDist, res.MergeRounds, res.MaxQueue)
	}
	return t
}

// E3TorusSort measures Theorem 3.3: TorusSort against 3D/2 + o(n),
// D = d*n/2 on the torus. The pairdist column checks Lemma 3.4
// (bound D/2 + o(n)).
func E3TorusSort(o Options) *stats.Table {
	t, row := copySortTable("E3 (Theorem 3.3) — TorusSort on the d-dimensional torus: bound 1.5 x D + o(n) (D = dn/2)")
	for _, c := range torusSweep(o.Quick) {
		res := deliver(c.spec(service.AlgTorusSort, o.keySeed()))
		row(c, res.Diameter, res.RouteSteps, res.MaxPairDist, res.MergeRounds, res.MaxQueue)
	}
	return t
}

// E4Baselines compares the paper's algorithms against the previous best
// (FullSort, 2D + o(n)) and against odd-even transposition sort (the
// Theta(N) classic) on one fixed instance, reproducing the paper's
// improvement claims.
func E4Baselines(o Options) *stats.Table {
	c := sortCase{3, 32, 8}
	if o.Quick {
		c = sortCase{3, 16, 4}
	}
	shape := c.mesh()
	D := shape.Diameter()
	t := stats.NewTable(
		fmt.Sprintf("E4 — baseline comparison on %v (D=%d): who wins and by what factor", shape, D),
		"algorithm", "bound/D", "route", "route/D", "total", "notes")
	for _, a := range []struct{ name, alg, bound, notes string }{
		{"FullSort", service.AlgFull, "2.00", "previous best [KSS94]"},
		{"SimpleSort", service.AlgSimple, "1.50", "Thm 3.1, no copies"},
		{"CopySort", service.AlgCopy, "1.25", "Thm 3.2, bound needs d>=8"},
	} {
		res := deliver(c.spec(a.alg, o.keySeed()))
		t.Addf(a.name, a.bound, res.RouteSteps, ratio(res.RouteSteps, D), res.TotalSteps, a.notes)
	}

	// Odd-even transposition on a smaller mesh (Theta(N) steps). Direct:
	// its keys are seeded o.seed(), and a spec's keys start at seed 2.
	small := grid.New(3, 8)
	oe, err := baseline.RunOddEven(small, core.RandomKeys(small, 1, o.seed()), baseline.RunOpts{})
	if err != nil {
		panic(err)
	}
	t.Addf("OddEven(3d,n=8)", "N/D", oe.TotalSteps, ratio(oe.TotalSteps, small.Diameter()), oe.TotalSteps, "classic Theta(N) sorter")
	return t
}

// E10KKSort measures Corollary 3.1.1: k-k sorting without copies. The
// corollary's bound needs k <= floor(d/4); at implementable dimensions
// the table shows how the routing cost grows once k exceeds the
// available bandwidth.
func E10KKSort(o Options) *stats.Table {
	t := stats.NewTable(
		"E10 (Corollary 3.1.1) — k-k SimpleSort: bound 1.5 x D + o(n) for k <= floor(d/4)",
		"d", "n", "b", "k", "route", "route/D", "maxq")
	cases := []struct {
		c sortCase
		k int
	}{
		{sortCase{3, 16, 4}, 1}, {sortCase{3, 16, 4}, 2}, {sortCase{3, 16, 4}, 3},
		{sortCase{4, 8, 4}, 1}, {sortCase{4, 8, 4}, 2},
	}
	if o.Quick {
		cases = cases[:3]
	}
	for _, tc := range cases {
		spec := tc.c.spec(service.AlgSimple, o.keySeed())
		spec.K = tc.k
		res := deliver(spec)
		t.Addf(tc.c.d, tc.c.n, tc.c.b, tc.k, res.RouteSteps, ratio(res.RouteSteps, res.Diameter), res.MaxQueue)
	}
	return t
}

// E11CenterRadius is the Corollary 3.1.2 ablation: shrinking the center
// region below half trades concentration radius r against routing time
// D/2 + r per phase (total ~ D + 2r). The reach column is the measured
// max distance from any processor to the region.
func E11CenterRadius(o Options) *stats.Table {
	c := sortCase{3, 32, 8}
	if o.Quick {
		c = sortCase{3, 16, 4}
	}
	shape := c.mesh()
	bs := grid.Blocks(shape, c.b)
	B := bs.Count()
	D := shape.Diameter()
	t := stats.NewTable(
		fmt.Sprintf("E11 (Corollary 3.1.2) — center region size ablation on %v (D=%d, B=%d blocks)", shape, D, B),
		"blocks", "frac", "radius r", "(D+2r)/D", "route", "route/D", "merges", "maxq")
	for _, count := range []int{B / 8, B / 4, B / 2, B} {
		if count < 2 {
			continue
		}
		region := grid.CenterBlocks(bs, count)
		// The corollary's r: the region's radius around the center (its
		// farthest processor = block-center distance plus block radius).
		// Each routing phase moves packets at most ~D/2 + r, so the
		// prediction for the total is D + 2r.
		r := 0
		for _, id := range region.Blocks {
			far := (bs.CenterDist2(id)+1)/2 + shape.Dim*(c.b-1)/2
			if far > r {
				r = far
			}
		}
		// Direct: the center region's size (CenterCount) is no JobSpec field.
		res := sortDirect(core.SimpleSort, core.Config{Shape: shape, BlockSide: c.b, CenterCount: count, Seed: o.seed()})
		t.Addf(region.Size(), ratio(region.Size(), B), r,
			ratio(D+2*r, D), res.RouteSteps, res.RouteRatio(), res.MergeRounds, res.MaxQueue)
	}
	return t
}

// E13AltEstimator is the estimator ablation (extension beyond the
// paper): at alpha = 1/2 (B^2 = V) the paper's rank estimate is off by
// up to B*R ranks and the cleanup pays for it; the bias-corrected
// estimate (Config.AltEstimator) models the per-block sample streams and
// keeps the cleanup short on typical inputs.
func E13AltEstimator(o Options) *stats.Table {
	t := stats.NewTable(
		"E13 (ablation, beyond paper) — paper estimator vs bias-corrected estimator in SimpleSort",
		"d", "n", "b", "B^2/2V", "estimator", "route/D", "merges", "total")
	cases := []sortCase{{3, 16, 4}, {4, 16, 4}, {3, 32, 8}}
	if o.Quick {
		cases = cases[:1]
	}
	for _, c := range cases {
		bs := grid.Blocks(c.mesh(), c.b)
		fill := ratio(bs.Count()*bs.Count(), 2*bs.Volume())
		for _, alt := range []bool{false, true} {
			spec := c.spec(service.AlgSimple, o.keySeed())
			spec.AltEstimator = alt
			res := deliver(spec)
			name := "paper (i*R+j')"
			if alt {
				name = "corrected"
			}
			t.Addf(c.d, c.n, c.b, fill, name, ratio(res.RouteSteps, res.Diameter), res.MergeRounds, res.TotalSteps)
		}
	}
	return t
}

// E17RealLocalSort replaces the oracle-charged local sort phases with
// the fully simulated in-mesh shearsort (extension; DESIGN.md
// substitution 2 made concrete): routing is unchanged by construction,
// and the measured shearsort cost bounds the o(n) terms from above with
// a real algorithm instead of a cost model.
func E17RealLocalSort(o Options) *stats.Table {
	t := stats.NewTable(
		"E17 (extension) — oracle-charged local sorts vs simulated in-mesh shearsort",
		"algorithm", "d", "n", "b", "local mode", "route", "local-steps", "total", "total/D")
	cases := []sortCase{{3, 16, 4}, {3, 32, 8}}
	if o.Quick {
		cases = cases[:1]
	}
	for _, c := range cases {
		for _, alg := range []struct{ name, alg string }{
			{"SimpleSort", service.AlgSimple}, {"CopySort", service.AlgCopy},
		} {
			for _, real := range []bool{false, true} {
				spec := c.spec(alg.alg, o.keySeed())
				spec.RealLocalSort = real
				res := deliver(spec)
				mode := "oracle (3db charge)"
				if real {
					mode = "shearsort (simulated)"
				}
				t.Addf(alg.name, c.d, c.n, c.b, mode, res.RouteSteps, res.OracleSteps, res.TotalSteps, ratio(res.TotalSteps, res.Diameter))
			}
		}
	}
	return t
}

// E1bSeedStability quantifies run-to-run variation: SimpleSort's routing
// cost over many seeds on one instance. The algorithm is deterministic
// given the input, so the spread comes entirely from the random input
// keys.
func E1bSeedStability(o Options) *stats.Table {
	c := sortCase{3, 16, 4}
	seeds := 10
	if o.Quick {
		seeds = 3
	}
	var route, merges stats.Summary
	for s := 0; s < seeds; s++ {
		res := deliver(c.spec(service.AlgSimple, o.keySeed()+uint64(s)))
		route.Observe(float64(res.RouteSteps))
		merges.Observe(float64(res.MergeRounds))
	}
	t := stats.NewTable(
		fmt.Sprintf("E1b — SimpleSort seed stability on %v (%d random inputs)", c.mesh(), seeds),
		"quantity", "min", "mean", "max", "std")
	t.Addf("route steps", route.Min, route.Mean(), route.Max, route.Std())
	t.Addf("merge rounds", merges.Min, merges.Mean(), merges.Max, merges.Std())
	return t
}
