// Package core implements the paper's primary contribution: the sorting
// algorithms SimpleSort (Theorem 3.1), CopySort (Theorem 3.2), and
// TorusSort (Theorem 3.3), with their k-k (Corollary 3.1.1) and
// small-center (Corollary 3.1.2) variants; the near-diameter permutation
// routing algorithms of Section 5 (Theorems 5.1-5.3); and the selection
// algorithm of Section 4.3.
//
// Global routing phases run step-accurately on internal/engine. Local
// block operations — the o(n) terms of the paper's bounds — execute as
// oracle phases: the rearrangement is applied atomically and a
// configurable cost is charged to the clock (see CostModel and DESIGN.md
// substitution 2).
package core

import (
	"fmt"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/index"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
)

// CostModel charges the o(n)-term local operations. Defaults correspond
// to the best known in-block algorithms: sorting a block of side b in d
// dimensions in O(d*b) steps, and merging/rebalancing two adjacent blocks
// in O(d*b) steps.
type CostModel struct {
	// LocalSortFactor scales the charge for sorting one block:
	// LocalSortFactor * d * b steps. Zero means the default of 3.
	LocalSortFactor int
	// MergeFactor scales the charge for one odd-even round of merges
	// between adjacent blocks: MergeFactor * d * b steps. Zero means the
	// default of 4.
	MergeFactor int
}

func (c CostModel) localSortCost(d, b int) int {
	f := c.LocalSortFactor
	if f == 0 {
		f = 3
	}
	return f * d * b
}

func (c CostModel) mergeCost(d, b int) int {
	f := c.MergeFactor
	if f == 0 {
		f = 4
	}
	return f * d * b
}

// FaultOpts bundles the fault-injection and graceful-degradation
// settings shared by Config and RouteConfig; the zero value means a
// perfect network. When a plan is set, every routing phase of the run
// consults it and the greedy policy is replaced by its fault-aware
// detouring variant (route.FaultGreedy). Packets that still cannot reach
// their destinations are stranded per engine.RouteOpts.Patience and
// surface in the per-phase and total Stranded counts — a degraded run
// completes instead of erroring, while livelocks and MaxSteps overruns
// return *engine.DegradedError. Local oracle phases (block-local sorts,
// merge cleanup) model perfect intra-block hardware and ignore the
// plan, so a cleanup may even repair stranded keys' placement; the
// Stranded counts are the degradation signal.
type FaultOpts struct {
	Faults     *engine.FaultPlan
	Patience   int  // see engine.RouteOpts.Patience
	NoProgress int  // see engine.RouteOpts.NoProgress
	Paranoid   bool // per-step engine invariant checking

	// Cancel, if non-nil, cooperatively cancels the run: routing phases
	// stop at the next step boundary, the pipeline stops at the next
	// phase boundary, and the algorithm returns its partial result with
	// an error satisfying errors.Is(err, engine.ErrCancelled). The
	// service layer wires a job context's Done channel here to implement
	// deadlines and DELETE /v1/jobs/{id}.
	Cancel <-chan struct{}
}

// RouteOpts returns the engine options shared by every routing phase of
// a run, ready for per-phase fields to be filled in.
func (f FaultOpts) RouteOpts() engine.RouteOpts {
	return engine.RouteOpts{
		Faults:     f.Faults,
		Patience:   f.Patience,
		NoProgress: f.NoProgress,
		Paranoid:   f.Paranoid,
		Cancel:     f.Cancel,
	}
}

// Policy returns the routing policy for the shape: fault-aware detouring
// when a plan is set, the plain greedy scheme otherwise.
func (f FaultOpts) Policy(s grid.Shape) engine.Policy {
	if f.Faults != nil {
		return route.NewFaultGreedy(s, f.Faults)
	}
	return route.NewGreedy(s)
}

// Config describes one run of a sorting algorithm.
type Config struct {
	Shape     grid.Shape
	BlockSide int // block side length b of the blocked snake-like indexing scheme
	K         int // packets per processor (k-k sorting); 0 means 1

	// CenterCount overrides the number of blocks in the center region C
	// (Corollary 3.1.2). 0 means half of all blocks, the paper's default.
	// The region is grown minimally to be closed under reflection.
	CenterCount int

	// RealLocalSort executes the block-local sort phases by simulated
	// in-mesh multi-dimensional shearsort (internal/baseline) instead of
	// charging the oracle cost model: the clock advances by the measured
	// parallel step count of the real sorter. The final merge cleanup
	// remains oracle-charged (see DESIGN.md substitution 2). Works for
	// any uniform per-processor load, so it covers all local phases of
	// SimpleSort, CopySort, TorusSort, FullSort, and Select.
	RealLocalSort bool

	// AltEstimator switches SimpleSort/FullSort to a bias-corrected
	// destination estimate (an extension beyond the paper; ablation
	// E13). The paper's estimate i*R + j' carries a systematic offset of
	// up to B*R ranks from the per-source-block sampling pattern, which
	// is below one block only in the alpha >= 2/3 regime (B^2 <= 2V).
	// The corrected estimate floor(i/B)*R*B + (i mod B) + j'*B models
	// the interleaving of the B per-block sample streams explicitly; it
	// is also a bijection into [kN], and on typical inputs it keeps the
	// cleanup short even at alpha = 1/2. Worst-case guarantees are
	// unchanged (the cleanup still fixes any estimate).
	AltEstimator bool

	Seed uint64
	// ShardShift overrides the engine's shard sizing (log2 processors per
	// shard; 0 means automatic, see engine.Net.ShardShift). Exposed for
	// benchmarking shard-size sensitivity (cmd/meshsort -shard-shift).
	ShardShift int

	// Pool optionally supplies a persistent engine worker pool shared by
	// every routing phase of the run (and by other runs using the same
	// pool). The caller owns its lifecycle. Nil means one worker, the
	// caller's goroutine.
	Pool *engine.Pool

	// Runner optionally supplies a warm pipeline runner to execute on
	// instead of building a fresh one: it is Reset to this configuration
	// (shape, pool, policy, fault options), reusing its packet arena,
	// per-processor queues, step scratch, and radix slabs. This is the
	// steady-state entry point the service layer's runner leasing uses.
	// The runner must be idle (no other run in flight on it); the caller
	// keeps ownership and may reuse it after the run completes.
	Runner *pipeline.Runner

	Cost CostModel

	// Observer, if set, receives every phase's PhaseStat as it completes
	// (cmd/meshsort exposes it as -trace).
	Observer pipeline.Observer

	FaultOpts
}

// runner builds (or re-arms) the pipeline runner every sorting run
// executes on: it owns the network, the shared worker pool, the routing
// policy, and the fault options. When Config.Runner supplies a warm
// runner it is Reset in place, so a same-shaped run reuses all of its
// learned storage.
func (c Config) runner() *pipeline.Runner {
	return c.runnerWith(c.Policy(c.Shape))
}

// runnerWith is runner with a caller-supplied policy, so warm-run caches
// (centerStash) can reuse a previously built greedy policy instead of
// allocating one per run.
func (c Config) runnerWith(policy engine.Policy) *pipeline.Runner {
	return pipeline.Arm(c.Runner, pipeline.Config{
		Shape:      c.Shape,
		ShardShift: c.ShardShift,
		Pool:       c.Pool,
		Policy:     policy,
		Route:      c.RouteOpts(),
		Observer:   c.Observer,
	})
}

func (c Config) k() int {
	if c.K == 0 {
		return 1
	}
	return c.K
}

// Validate checks the shape is well-formed (the sorting algorithms are
// mesh/torus algorithms: blocked indexing, unshuffles, and center
// regions have no meaning on other topologies, so Config deliberately
// takes a grid.Shape and not a topo.Topology) and the divisibility
// constraints the algorithms need: the block side must divide the mesh
// side, the number of blocks B must be even (so the center region is
// exactly half the network) and must divide the block volume (so the
// unshuffle step lands exactly; this is the finite-size incarnation of
// the paper's alpha >= 2/3 choice).
func (c Config) Validate() error {
	s := c.Shape
	if err := s.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	b := c.BlockSide
	if b < 1 || s.Side%b != 0 {
		return fmt.Errorf("core: block side %d must divide mesh side %d", b, s.Side)
	}
	bs := grid.Blocks(s, b)
	B := bs.Count()
	V := bs.Volume()
	if B < 2 {
		return fmt.Errorf("core: need at least 2 blocks, got %d (block side %d on side %d)", B, b, s.Side)
	}
	if B%2 != 0 {
		return fmt.Errorf("core: block count %d must be even (choose n/b even)", B)
	}
	if V%B != 0 {
		return fmt.Errorf("core: block volume %d must be a multiple of block count %d (choose b >= n/b, i.e. alpha >= 1/2)", V, B)
	}
	if c.K < 0 {
		return fmt.Errorf("core: negative k")
	}
	if c.CenterCount < 0 || c.CenterCount > B {
		return fmt.Errorf("core: center count %d out of range [0,%d]", c.CenterCount, B)
	}
	return nil
}

// scheme returns the blocked snake-like indexing scheme of the run.
func (c Config) scheme() *index.Blocked {
	return index.BlockedSnake(c.Shape, c.BlockSide)
}

// PhaseStat records one phase of an algorithm run. It is produced only
// by the pipeline runner (see internal/pipeline); this alias keeps the
// public result types stable.
type PhaseStat = pipeline.PhaseStat

// Result reports a completed sorting run: the runner's Report (steps,
// phases, MergeRounds, MaxPairDist, Sorted) plus the configuration and
// the final key placement.
type Result struct {
	pipeline.Report
	Config Config

	// Final holds the keys in sort-index order after the run (k per
	// index), for inspection and cross-checking against reference sorts.
	//
	// Steady-state aliasing: when the run executed on a caller-supplied
	// warm runner (Config.Runner), Final and Phases are backed by
	// runner-owned reusable storage and stay valid only until the next
	// run on that runner — copy them to retain across runs. Runs without
	// Config.Runner own their slices outright.
	Final []int64
}

// Diameter returns the diameter of the run's network.
func (r Result) Diameter() int { return r.Config.Shape.Diameter() }

// RouteRatio returns RouteSteps normalized by the diameter: the
// coefficient the paper's bounds are stated in (3/2 for SimpleSort, 5/4
// for CopySort, ...). The charged o(n) local costs are excluded; they are
// reported separately as OracleSteps.
func (r Result) RouteRatio() float64 { return float64(r.RouteSteps) / float64(r.Diameter()) }

// TotalRatio returns TotalSteps normalized by the diameter.
func (r Result) TotalRatio() float64 { return float64(r.TotalSteps) / float64(r.Diameter()) }
