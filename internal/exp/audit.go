package exp

import (
	"meshsort/internal/core"
	"meshsort/internal/service"
	"meshsort/internal/stats"
)

// E12QueueAudit certifies the model assumption: the multi-packet model
// allows O(1) packets per processor, and all algorithms must respect it.
// The table reports the peak per-processor occupancy of every algorithm
// on a common instance; all values must be small constants (they carry a
// factor ~k for k-k inputs and ~4 for CopySort's originals+copies).
func E12QueueAudit(o Options) *stats.Table {
	c := sortCase{3, 16, 4}
	mesh := c.mesh()
	t := stats.NewTable(
		"E12 — queue audit: peak packets per processor (multi-packet model requires O(1))",
		"algorithm", "network", "maxq")
	for _, a := range []struct{ name, alg string }{
		{"SimpleSort", service.AlgSimple}, {"CopySort", service.AlgCopy},
		{"FullSort", service.AlgFull}, {"TorusSort", service.AlgTorusSort},
	} {
		res := deliver(c.spec(a.alg, o.keySeed()))
		t.Addf(a.name, res.Shape, res.MaxQueue)
	}
	two := run(c.spec(service.AlgRoute, o.seed()))
	t.Addf("TwoPhaseRoute", two.Shape, two.MaxQueue)

	// Direct: its keys are seeded o.seed(), and a spec's keys start at seed 2.
	sel, err := core.Select(core.Config{Shape: mesh, BlockSide: c.b, Seed: o.seed()}, core.RandomKeys(mesh, 1, o.seed()), mesh.N()/2)
	if err != nil {
		panic(err)
	}
	t.Addf("Select", mesh.String(), sel.MaxQueue)
	return t
}
