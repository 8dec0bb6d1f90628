package baseline

import (
	"fmt"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/index"
	"meshsort/internal/pipeline"
)

// RunOpts configures a standalone baseline run (ShearSort, RunOddEven).
// Callers that want more than one engine worker pass a Pool of that
// size; without one every phase runs on the caller's goroutine.
type RunOpts struct {
	// ShardShift overrides the engine's shard sizing (log2 processors
	// per shard; 0 means automatic, see engine.Net.ShardShift).
	ShardShift int
	// Pool optionally supplies a persistent engine worker pool shared
	// with other runs (the same pool SimpleSort's routing phases use),
	// so baseline-vs-SimpleSort comparisons pay identical pool costs.
	Pool *engine.Pool
	// Observer, if set, receives the run's PhaseStat when it completes.
	Observer pipeline.Observer
	// Runner, if non-nil, is Reset to the run's configuration and reused
	// instead of building a fresh runner (the service's warm runners).
	Runner *pipeline.Runner
}

// runner returns the run's pipeline runner on shape s: opts.Runner
// Reset in place, or a fresh one.
func (opts RunOpts) runner(s grid.Shape) *pipeline.Runner {
	cfg := pipeline.Config{
		Shape:      s,
		ShardShift: opts.ShardShift,
		Pool:       opts.Pool,
		Observer:   opts.Observer,
	}
	if opts.Runner != nil {
		opts.Runner.Reset(cfg)
		return opts.Runner
	}
	return pipeline.New(cfg)
}

// ShearSortResult reports a standalone in-mesh shearsort run.
type ShearSortResult struct {
	Steps      int  // simulated steps (== the network clock)
	Iterations int  // shear iterations used
	Fallback   int  // fallback transposition rounds used (0 = pure shearsort)
	Sorted     bool // certification of the outcome
	Diameter   int
	Phases     []pipeline.PhaseStat
}

// ShearSort sorts one key per processor into the snake order of the
// whole mesh by the in-mesh multi-dimensional shearsort, treating the
// entire network as a single block and executing it as a one-phase
// pipeline program. This is the fully-simulated O(n log n)-per-dimension
// baseline that SimpleSort's block-local phases reuse (see
// core.Config.RealLocalSort); run standalone it shows why shearing the
// whole mesh loses to the paper's block-then-route structure.
func ShearSort(s grid.Shape, keys []int64, opts RunOpts) (ShearSortResult, error) {
	if err := s.Validate(); err != nil {
		return ShearSortResult{}, fmt.Errorf("baseline: %w", err)
	}
	res := ShearSortResult{Diameter: s.Diameter()}
	runner := opts.runner(s)
	if _, err := runner.InjectKeys(1, keys); err != nil {
		return res, err
	}
	// One block spanning the whole mesh: its local snake order is the
	// global snake order.
	b := index.BlockedSnake(s, s.Side)
	if b.BlockCount() != 1 {
		return res, fmt.Errorf("baseline: whole-mesh blocking produced %d blocks", b.BlockCount())
	}
	err := runner.Run(pipeline.Local{Name: "shearsort", Kind: "shear", Apply: func(net *engine.Net) (int, error) {
		st, err := ShearSortBlocks(net, b, []int{b.BlockAtOrder(0)})
		res.Iterations = st.Iterations
		res.Fallback = st.Fallback
		return 0, err
	}})
	tot := runner.Totals()
	res.Steps = tot.TotalSteps
	res.Phases = tot.Phases
	if err != nil {
		return res, err
	}

	net := runner.Net()
	var prev *engine.Packet
	res.Sorted = true
	for idx := 0; idx < s.N(); idx++ {
		held := net.Held(b.RankAt(idx))
		if len(held) != 1 {
			res.Sorted = false
			break
		}
		p := net.Packet(held[0])
		if prev != nil && (p.Key < prev.Key || (p.Key == prev.Key && p.ID < prev.ID)) {
			res.Sorted = false
			break
		}
		prev = p
	}
	return res, nil
}
