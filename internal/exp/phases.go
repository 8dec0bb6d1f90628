package exp

import (
	"meshsort/internal/service"
	"meshsort/internal/stats"
)

// E20PhaseTrace prints the per-phase statistics of one SimpleSort run
// and one TwoPhaseRoute run, as recorded by the pipeline runner — the
// table form of cmd/meshsort's -trace stream. One row per phase: the
// kind, the simulated steps, the paper's per-phase bound (0 = none
// stated), and the phase's distance/queue/stranding observations.
// Throughput fields are deliberately omitted: they are wall-clock
// measurements and this table must be deterministic.
func E20PhaseTrace(o Options) *stats.Table {
	t := stats.NewTable(
		"E20 — pipeline phase trace: per-phase steps vs. the paper's per-phase bounds (SimpleSort Thm 3.1; TwoPhaseRoute Thm 5.1)",
		"algorithm", "phase", "kind", "steps", "bound", "maxdist", "maxq", "stranded")
	add := func(alg string, res service.Result) {
		for _, ph := range res.Phases {
			t.Addf(alg, ph.Name, ph.Kind, ph.Steps, ph.Bound, ph.MaxDist, ph.MaxQueue, ph.Stranded)
		}
	}

	// The instance is fixed (not scaled by -quick): the table documents
	// phase structure, not asymptotics, and must match across run modes.
	c := sortCase{3, 16, 4}
	add("SimpleSort", deliver(c.spec(service.AlgSimple, o.keySeed())))
	rev := c.spec(service.AlgRoute, o.seed())
	rev.Perm = "reversal"
	add("TwoPhaseRoute", run(rev))
	return t
}
