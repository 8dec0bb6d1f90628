package service

import (
	"context"
	"testing"

	"meshsort/internal/pipeline"
)

// TestReportIsFoldOfPhases: for every algorithm of the dispatch table,
// the top-level totals of a complete run are the fold of its phase list.
// Each spec runs with faults and a patience budget wherever the spec
// allows them, so stranded packets must be folded too.
func TestReportIsFoldOfPhases(t *testing.T) {
	specs := []JobSpec{
		{Alg: AlgSimple, D: 3, N: 8, Faults: 0.05, Patience: 3},
		{Alg: AlgCopy, D: 3, N: 8, B: 4, Faults: 0.01},
		{Alg: AlgTorusSort, D: 2, N: 8, Faults: 0.05, Patience: 3},
		{Alg: AlgFull, D: 2, N: 8, Faults: 0.05, Patience: 3},
		{Alg: AlgOddEven, D: 2, N: 8},
		{Alg: AlgShear, D: 2, N: 8},
		{Alg: AlgRoute, D: 3, N: 8, Faults: 0.05, Patience: 3},
		{Alg: AlgSelect, D: 3, N: 8, Faults: 0.05, Patience: 3},
		{Alg: AlgGreedyRoute, D: 3, N: 8, Faults: 0.05, Patience: 3},
		{Alg: AlgCliqueRoute, N: 16, K: 2, Faults: 0.05, Patience: 3},
		{Alg: AlgTraffic, D: 2, N: 8, Load: "k:2", Inject: "trickle:4", Faults: 0.05, Patience: 3},
	}
	stranded := 0
	for _, spec := range specs {
		t.Run(spec.Alg, func(t *testing.T) {
			spec, err := spec.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			runner := pipeline.New(pipeline.Config{Topo: spec.Topo()})
			res, err := Run(context.Background(), spec, Env{Runner: runner})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			steps, strand, maxQueue := 0, 0, 0
			for _, ph := range res.Phases {
				steps += ph.Steps
				strand += ph.Stranded
				maxQueue = max(maxQueue, ph.MaxQueue)
			}
			if res.RouteSteps+res.OracleSteps != steps {
				t.Errorf("routeSteps %d + oracleSteps %d != %d, the phases' steps",
					res.RouteSteps, res.OracleSteps, steps)
			}
			if res.Stranded != strand {
				t.Errorf("stranded = %d, the phases strand %d", res.Stranded, strand)
			}
			if res.MaxQueue < maxQueue {
				t.Errorf("maxQueue = %d below a phase's %d", res.MaxQueue, maxQueue)
			}
			stranded += strand
		})
	}
	if stranded == 0 {
		t.Error("no faulted run stranded a packet; the stranded fold went untested")
	}
}
