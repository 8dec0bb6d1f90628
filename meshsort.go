// Package meshsort is a Go reproduction of "Improved Bounds for Routing
// and Sorting on Multi-Dimensional Meshes" (Torsten Suel, SPAA 1994).
//
// It provides a step-accurate simulator of the synchronous multi-packet
// mesh/torus model together with the paper's algorithms:
//
//   - SimpleSort: 1-1 (and k-k) sorting on the d-dimensional mesh in
//     3D/2 + o(n) steps without copying packets (Theorem 3.1).
//   - CopySort: 5D/4 + o(n) on the mesh with one copy per packet
//     (Theorem 3.2).
//   - TorusSort: 3D/2 + o(n) on the torus (Theorem 3.3).
//   - TwoPhaseRoute: permutation routing in D + n + o(n) on the mesh and
//     D + n/8 + o(n) on the torus (Theorems 5.1-5.3).
//   - Select: selection at the center in D + o(n) (Section 4.3).
//   - FullSort: the previous-best 2D + o(n) baseline the paper improves
//     on, plus odd-even transposition sort and greedy routing baselines
//     in internal/baseline.
//   - Lower-bound calculators for Section 4 in internal/lb.
//
// This file is a thin facade over the internal packages; examples/ and
// cmd/ show it in use. Time is always measured in simulated synchronous
// steps; D denotes the network diameter.
package meshsort

import (
	"meshsort/internal/core"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/xmath"
)

// Re-exported core types. See internal/core for full documentation.
type (
	// Config describes a sorting/selection run: shape, block side,
	// packets per processor, seed, cost model.
	Config = core.Config
	// CostModel charges the o(n)-term local phases.
	CostModel = core.CostModel
	// Result reports a sorting run: its Report plus the final keys.
	Result = core.Result
	// Report is the per-phase statistics and totals of any run; selection
	// and routing return it directly.
	Report = pipeline.Report
	// RouteConfig describes a two-phase routing run.
	RouteConfig = core.RouteConfig
	// Shape is a d-dimensional mesh or torus.
	Shape = grid.Shape
	// Problem is a routing problem (sources and destinations).
	Problem = perm.Problem
)

// Mesh returns the shape of a d-dimensional mesh of side length n.
func Mesh(d, n int) Shape { return grid.New(d, n) }

// Torus returns the shape of a d-dimensional torus of side length n.
func Torus(d, n int) Shape { return grid.NewTorus(d, n) }

// SimpleSort sorts keys on a mesh or torus without copying packets in
// 3D/2 + o(n) steps (Theorem 3.1 / Corollary 3.1.1 for k-k inputs).
func SimpleSort(cfg Config, keys []int64) (Result, error) { return core.SimpleSort(cfg, keys) }

// CopySort sorts keys on a mesh with one copy per packet in 5D/4 + o(n)
// steps (Theorem 3.2; the bound needs d >= 8, smaller d runs report
// their measured times).
func CopySort(cfg Config, keys []int64) (Result, error) { return core.CopySort(cfg, keys) }

// TorusSort sorts keys on a torus with one copy per packet in 3D/2+o(n)
// steps (Theorem 3.3).
func TorusSort(cfg Config, keys []int64) (Result, error) { return core.TorusSort(cfg, keys) }

// FullSort is the previous-best baseline (Kaufmann-Sibeyn-Suel style
// sort-and-unshuffle over the whole network, 2D + o(n)).
func FullSort(cfg Config, keys []int64) (Result, error) { return core.FullSort(cfg, keys) }

// Select delivers the key of the given rank to the center processor in
// D + o(n) steps (Section 4.3).
func Select(cfg Config, keys []int64, rank int) (Report, error) {
	return core.Select(cfg, keys, rank)
}

// TwoPhaseRoute routes a permutation in D + 2*nu + o(n) steps through
// distance-bounded intermediate blocks (Theorems 5.1-5.3).
func TwoPhaseRoute(cfg RouteConfig, prob Problem) (Report, error) {
	return core.TwoPhaseRoute(cfg, prob)
}

// RandomKeys generates k*N pseudo-random keys for a shape.
func RandomKeys(s Shape, k int, seed uint64) []int64 { return core.RandomKeys(s, k, seed) }

// RandomPermutation returns a uniformly random 1-1 routing problem.
func RandomPermutation(s Shape, seed uint64) Problem {
	return perm.Random(s, xmath.NewRNG(seed))
}

// ReversalPermutation returns the center-reflection permutation, a hard
// instance for greedy routing.
func ReversalPermutation(s Shape) Problem { return perm.Reversal(s) }

// TransposePermutation returns the coordinate-rotation permutation.
func TransposePermutation(s Shape) Problem { return perm.Transpose(s) }

// HotSpotPermutation returns the permutation engineered to blow up the
// queues of the standard greedy scheme (see experiment E18).
func HotSpotPermutation(s Shape) Problem { return perm.HotSpot(s) }

// RandSimpleSort is the randomized (Valiant-Brebner-style) form of
// SimpleSort (Section 2.1); see experiment E14 for the comparison with
// the deterministic sort-and-unshuffle form.
func RandSimpleSort(cfg Config, keys []int64) (Result, error) {
	return core.RandSimpleSort(cfg, keys)
}

// RandTwoPhaseRoute is the randomized form of TwoPhaseRoute: random
// intermediate processors instead of deterministic block spreading.
func RandTwoPhaseRoute(cfg RouteConfig, prob Problem) (Report, error) {
	return core.RandTwoPhaseRoute(cfg, prob)
}

// RouteBySorting routes a full-information (off-line) 1-1 problem by
// sorting destination indices, inheriting SimpleSort's 3D/2 + o(n)
// bound (the Section 1.2 remark; experiment E15).
func RouteBySorting(cfg Config, prob Problem) (Result, error) {
	return core.RouteBySorting(cfg, prob)
}
