package exp

import (
	"meshsort/internal/grid"
	"meshsort/internal/index"
	"meshsort/internal/lb"
	"meshsort/internal/service"
	"meshsort/internal/stats"
)

// E7DiamondBounds checks Lemma 4.1: the analytic bounds on the volume
// and surface of the center diamond C_{d,gamma} against exact counts.
// Tightness = exact/bound (must be <= 1; how much the bound gives away).
func E7DiamondBounds(o Options) *stats.Table {
	t := stats.NewTable(
		"E7 (Lemma 4.1) — exact diamond volume/surface vs. analytic bounds (fractions of n^d)",
		"d", "n", "gamma", "vol-exact", "vol-bound", "vol-tight", "surf-exact", "surf-bound", "holds")
	ds := []int{4, 8, 16, 32, 64, 128}
	if o.Quick {
		ds = ds[:4]
	}
	for _, d := range ds {
		for _, gamma := range []float64{0.1, 0.2, 0.3} {
			// Direct: the lower-bound tables count and evaluate formulas
			// (internal/lb); nothing runs on a network.
			dm := lb.NewDiamond(d, 8, gamma)
			t.Addf(d, 8, gamma, dm.VolFrac, dm.VolBoundFrac, dm.VolTightness(),
				dm.SurfFrac, dm.SurfBoundFrac, dm.Lemma41Holds())
		}
	}
	return t
}

// E8LowerBounds evaluates the sorting lower bounds of Section 4:
// the dimension d0(eps) at which the no-copy bound (Theorem 4.1) kicks
// in, its coefficient, and the copying-case premises (Theorems 4.3/4.4).
// Together with E1/E2 it brackets the algorithms: lower bound <=
// measured <= upper bound.
func E8LowerBounds(o Options) []*stats.Table {
	t1 := stats.NewTable(
		"E8a (Theorem 4.1) — smallest d with the no-copy lower bound (3/2-eps')D, n=8, gamma=3*eps",
		"eps", "d0", "LB coeff (x D)", "flux-frac", "free-frac", "finite-n LB valid")
	dmax := 512
	if o.Quick {
		dmax = 256
	}
	for _, eps := range []float64{0.05, 0.1, 0.2, 0.3} {
		// Direct: lower-bound formulas (internal/lb), not a run.
		d0, b, ok := lb.Theorem41D0(eps, 8, dmax)
		if !ok {
			t1.Addf(eps, "-", "-", "-", "-", "-")
			continue
		}
		t1.Addf(eps, d0, b.Coefficient, b.FluxFrac, b.FreeFrac, b.HoldsFinite)
	}

	t2 := stats.NewTable(
		"E8b (Theorems 4.3/4.4) — copying-case premise: vanishing fraction of packet instances fits the diamond in time",
		"d", "eps", "vol-frac", "flux-frac", "premise", "mesh LB (xD)", "torus LB (xD')")
	ds := []int{32, 64, 128, 256}
	if o.Quick {
		ds = ds[:3]
	}
	for _, d := range ds {
		b := lb.Theorem43Premise(d, 8, 0.1)
		D := float64(d * 7)
		Dt := float64(d * 8 / 2)
		t2.Addf(d, 0.1, b.VolFrac, b.FluxFrac, b.Premise, b.MeshLB/D, b.TorusLB/Dt)
	}

	t3 := stats.NewTable(
		"E8c (Section 4 prerequisite) — measured compatibility exponents beta of the standard indexing schemes",
		"scheme", "d", "n", "window", "beta", "compatible (beta<1)")
	for _, c := range []struct {
		s grid.Shape
		b int
	}{
		{grid.New(2, 16), 4}, {grid.New(3, 8), 4}, {grid.New(4, 4), 2},
	} {
		for _, sc := range []*index.Scheme{
			index.RowMajor(c.s), index.Snake(c.s),
			index.BlockedSnake(c.s, c.b).Scheme, index.BlockedRowMajor(c.s, c.b).Scheme,
		} {
			w := index.MinHyperplaneWindow(sc)
			beta := index.CompatibilityExponent(sc)
			t3.Addf(sc.Name(), c.s.Dim, c.s.Side, w, beta, beta < 1)
		}
	}
	return []*stats.Table{t1, t2, t3}
}

// E9Selection measures the Section 4.3 selection algorithm (upper bound
// D + o(n)) and tabulates Theorem 4.5's lower bound (9/16 - eps)D next
// to it: the open gap the paper leaves.
func E9Selection(o Options) []*stats.Table {
	t1 := stats.NewTable(
		"E9a (Section 4.3) — median selection to the center: upper bound ~1.0 x D",
		"network", "b", "D", "route", "route/D", "candidates", "correct")
	cases := []service.JobSpec{
		{D: 3, N: 16, B: 4}, {D: 3, N: 32, B: 8}, {D: 2, N: 64, B: 16}, {D: 3, N: 16, B: 4, Torus: true},
	}
	if o.Quick {
		cases = cases[:2]
	}
	for _, spec := range cases {
		// Target 0 selects the median; the keys are seeded Seed+1.
		spec.Alg, spec.Seed = service.AlgSelect, o.seed()+2
		res := run(spec)
		t1.Addf(res.Shape, spec.B, res.Diameter, res.RouteSteps, ratio(res.RouteSteps, res.Diameter), res.Candidates, res.Delivered)
	}

	t2 := stats.NewTable(
		"E9b (Theorem 4.5) — selection lower bound (9/16-eps) x D: premise by dimension (n=8, eps=0.05)",
		"d", "enter-frac", "ruleout-frac", "premise", "LB/D")
	ds := []int{64, 128, 256, 512}
	if o.Quick {
		ds = ds[:3]
	}
	for _, d := range ds {
		// Direct: a lower-bound formula (internal/lb), not a run.
		b := lb.Theorem45(d, 8, 0.05)
		t2.Addf(d, b.EnterFrac, b.RuleOutFrac, b.Premise, b.LowerBound/float64(d*7))
	}
	return []*stats.Table{t1, t2}
}
