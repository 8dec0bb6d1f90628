package core

import (
	"fmt"

	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/traffic"
)

// LKRoute routes a many-to-many (ℓ,k)-relation — each node sends at
// most ℓ packets and receives at most k, the model of Huc–Sau — through
// the two-phase scheme of Section 5. The 1-1 machinery needs no
// structural change: the spreading phase treats the demand as a
// multiset over source/destination block pairs, so endpoint
// multiplicity shows up only as extra congestion spread over S_nu. The
// reported bound gains the serialization cost of the endpoints: a node
// injecting ℓ packets needs ℓ-1 extra steps to put them on the wire and
// a node absorbing k packets needs k-1 extra steps to drain them, so
//
//	Bound = D + 2ν + (ℓ-1) + (k-1) + o(n).
//
// A k-relation load (exactly k sends and k receives per node — the k-k
// routing of Cor 3.1.1) is accepted as the special case ℓ = k.
func LKRoute(cfg RouteConfig, load traffic.Load) (pipeline.Report, error) {
	l, k := load.L, load.K
	switch load.Demand {
	case traffic.LKRelation:
	case traffic.KRelation:
		l, k = load.K, load.K
	default:
		return pipeline.Report{}, fmt.Errorf("core: LKRoute wants an (ℓ,k)- or k-relation load, got %q", load.String())
	}
	if l < 1 || k < 1 {
		return pipeline.Report{}, fmt.Errorf("core: LKRoute needs ℓ >= 1 and k >= 1, got ℓ=%d k=%d", l, k)
	}
	n := cfg.Shape.N()
	pairs, err := load.Pairs(n)
	if err != nil {
		return pipeline.Report{}, err
	}
	if err := traffic.Validate(pairs, n, l, k); err != nil {
		return pipeline.Report{}, err
	}
	prob := perm.Problem{
		Name: load.String(),
		Src:  make([]int, len(pairs)),
		Dst:  make([]int, len(pairs)),
	}
	for i, pr := range pairs {
		prob.Src[i] = pr.Src
		prob.Dst[i] = pr.Dst
	}
	res, err := TwoPhaseRoute(cfg, prob)
	res.Algorithm = "LKRoute"
	res.Bound += (l - 1) + (k - 1)
	return res, err
}
