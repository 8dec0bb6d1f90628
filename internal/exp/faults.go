package exp

import (
	"meshsort/internal/grid"
	"meshsort/internal/service"
	"meshsort/internal/stats"
)

// E19FaultTolerance measures the robustness extension (beyond the
// paper): a random permutation is greedily routed on the d=3 mesh while
// a growing fraction of the links is permanently failed, with the
// fault-aware detouring policy (route.FaultGreedy) engaged. The
// slowdown column is the step count normalized by the fault-free run of
// the same permutation; stranded counts packets that could not be
// delivered within the patience budget. At moderate failure rates the
// detours deliver everything at a modest slowdown; stranding only
// appears once failures begin to cut processors off entirely, so no
// row is required to deliver.
func E19FaultTolerance(o Options) *stats.Table {
	t := stats.NewTable(
		"E19 (robustness extension) — greedy routing of a random permutation under permanent link failures (detour policy)",
		"network", "fail-rate", "edges-down", "steps", "slowdown", "stranded", "maxq")
	s := grid.New(3, 16)
	rates := []float64{0, 0.005, 0.01, 0.02, 0.05}
	if o.Quick {
		s = grid.New(3, 8)
		rates = []float64{0, 0.01, 0.05}
	}
	base := 0
	for _, rate := range rates {
		spec := service.JobSpec{
			Alg: service.AlgGreedyRoute, D: s.Dim, N: s.Side, B: 4, Seed: o.seed(),
			Faults: rate, FaultSeed: o.seed() + 29,
		}
		res := run(spec)
		if base == 0 {
			base = res.RouteSteps
		}
		t.Addf(res.Shape, rate, spec.FaultPlan().DownEdges(), res.RouteSteps,
			ratio(res.RouteSteps, base), res.Stranded, res.MaxQueue)
	}
	return t
}
