package exp

import (
	"fmt"

	"meshsort/internal/service"
	"meshsort/internal/stats"
)

// E21CliqueRoute measures the first non-mesh workload (beyond the
// paper): random k-relations greedily routed on the congested clique,
// next to the paper's two-phase permutation routing on meshes of the
// same processor count. On the clique every node has a direct link to
// every other, so greedy direct routing delivers a k-relation in at
// most k steps (each directed link carries at most k packets, one per
// step); a permutation (k=1) lands in exactly one step — the
// diameter-one analogue of Lenzen's O(1)-round congested-clique
// routing. The mesh rows show what the same permutation costs under
// the paper's bound D + 2nu + o(n): the Theta(d*n) diameter term the
// clique's all-to-all wiring deletes. The bound column is the run's
// Bound, k on the clique and D + 2*EffectiveNu on the mesh; steps/bound
// is comparable across both.
func E21CliqueRoute(o Options) *stats.Table {
	t := stats.NewTable(
		"E21 (beyond the paper) — random k-relations on the congested clique (greedy direct routing, bound k) vs two-phase permutation routing on same-size meshes (bound D+2nu)",
		"network", "N", "k", "packets", "steps", "bound", "steps/bound", "maxq")
	sizes := []int{64, 256}
	ks := []int{1, 2, 4, 8}
	meshes := []int{8, 16} // 2-d sides
	if o.Quick {
		sizes = []int{64}
		ks = []int{1, 4}
		meshes = meshes[:1]
	}
	row := func(res service.Result, k int) {
		t.Addf(res.Shape, res.N, k, k*res.N, res.RouteSteps, res.Bound, ratio(res.RouteSteps, res.Bound), res.MaxQueue)
	}
	for _, n := range sizes {
		for _, k := range ks {
			res := run(service.JobSpec{Alg: service.AlgCliqueRoute, N: n, K: k, Seed: o.seed() + uint64(31*n+k)})
			if res.RouteSteps > res.Bound {
				panic(fmt.Sprintf("exp: E21 clique n=%d k=%d took %d steps, above the k-step bound", n, k, res.RouteSteps))
			}
			row(res, k)
		}
	}
	for _, side := range meshes {
		row(deliver(service.JobSpec{Alg: service.AlgRoute, D: 2, N: side, B: 4, Seed: o.seed() + uint64(side*side)}), 1)
	}
	return t
}
