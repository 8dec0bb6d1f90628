package exp

import (
	"fmt"

	"meshsort/internal/grid"
	"meshsort/internal/service"
	"meshsort/internal/stats"
	"meshsort/internal/traffic"
)

// E22KKSortBound verifies Corollary 3.1.1 quantitatively: k-k SimpleSort
// must finish its routing within 3D/2 + o(n), with the o(n) block terms
// scaled by the packet multiplicity (one block diameter k*b*d per extra
// packet layer — the instantiation recorded as the phase bound in
// core.SimpleSort, whose two routing phases sum to the run's Bound).
// Unlike E10, which only reports the measured steps, this experiment
// asserts the bound: a recorded bound other than the corollary's
// formula, or a run above it, panics, so the experiments harness
// doubles as a regression gate on the corollary.
func E22KKSortBound(o Options) *stats.Table {
	t := stats.NewTable(
		"E22 (Corollary 3.1.1, asserted) — k-k SimpleSort routing steps vs the bound 2*(3D/4 + k*b*d/2)",
		"d", "n", "b", "k", "D", "route", "bound", "route/bound", "maxq")
	cases := []struct {
		c sortCase
		k int
	}{
		{sortCase{3, 16, 4}, 2}, {sortCase{3, 16, 4}, 4},
		{sortCase{4, 8, 4}, 2}, {sortCase{2, 16, 4}, 2},
	}
	if o.Quick {
		cases = cases[:2]
	}
	for _, tc := range cases {
		spec := tc.c.spec(service.AlgSimple, o.keySeed())
		spec.K = tc.k
		res := deliver(spec)
		// The bound is the one SimpleSort records; pin it to the
		// corollary's formula so a loosened phase bound cannot carry
		// the assertion with it.
		if want := 2 * (3*res.Diameter/4 + tc.k*tc.c.b*tc.c.d/2); res.Bound != want {
			panic(fmt.Sprintf("exp: E22 d=%d n=%d k=%d recorded bound %d, want the Cor 3.1.1 bound %d",
				tc.c.d, tc.c.n, tc.k, res.Bound, want))
		}
		if res.RouteSteps > res.Bound {
			panic(fmt.Sprintf("exp: E22 d=%d n=%d k=%d routed in %d steps, above the Cor 3.1.1 bound %d",
				tc.c.d, tc.c.n, tc.k, res.RouteSteps, res.Bound))
		}
		t.Addf(tc.c.d, tc.c.n, tc.c.b, tc.k, res.Diameter, res.RouteSteps, res.Bound, ratio(res.RouteSteps, res.Bound), res.MaxQueue)
	}
	return t
}

// E23SojournVsRate measures per-packet latency under timed injection
// (beyond the paper; the online-routing setting of
// Even–Medina–Patt-Shamir): a 2-relation trickled into the mesh at
// increasing rates, routed greedily, measured by its sojourn
// percentiles rather than the makespan. At low rates the network drains
// between arrivals and every percentile hugs the distance floor; as the
// rate passes the network's service capacity, queueing shows up first
// in p99 and max, the classic latency-throughput curve. The batch row
// (everything at t=0) is the one-shot extreme the rest of the repo
// measures.
func E23SojournVsRate(o Options) *stats.Table {
	shape := grid.New(2, 16)
	if o.Quick {
		shape = grid.New(2, 8)
	}
	t := stats.NewTable(
		fmt.Sprintf("E23 (beyond the paper) — sojourn percentiles vs injection rate: 2-relation on %v, greedy routing", shape),
		"inject", "packets", "steps", "p50", "p95", "p99", "max", "maxq")
	rates := []float64{0.5, 1, 2, 4, 16}
	if o.Quick {
		rates = []float64{1, 4}
	}
	scheds := make([]traffic.Schedule, 0, len(rates)+1)
	for _, r := range rates {
		scheds = append(scheds, traffic.Schedule{Arrival: traffic.Trickle, Rate: r})
	}
	scheds = append(scheds, traffic.Schedule{Arrival: traffic.Batch})
	for _, sc := range scheds {
		// service.Run seeds the demand with Seed and the arrivals with
		// Seed+1.
		res := run(service.JobSpec{
			Alg: service.AlgTraffic, D: shape.Dim, N: shape.Side,
			Load: "k:2", Inject: sc.String(), Seed: o.seed(),
		})
		soj := res.Sojourn
		if soj == nil {
			panic(fmt.Sprintf("exp: E23 k:2 under %v: no sojourn samples", sc))
		}
		t.Addf(sc.String(), soj.Count, res.RouteSteps, soj.P50, soj.P95, soj.P99, soj.Max, res.MaxQueue)
	}
	return t
}
