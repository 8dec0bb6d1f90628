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
	return pipeline.Arm(opts.Runner, pipeline.Config{
		Shape:      s,
		ShardShift: opts.ShardShift,
		Pool:       opts.Pool,
		Observer:   opts.Observer,
	})
}

// ShearSort sorts one key per processor into the snake order of the
// whole mesh by the in-mesh multi-dimensional shearsort, treating the
// entire network as a single block and executing it as a one-phase
// pipeline program. This is the fully-simulated O(n log n)-per-dimension
// baseline that SimpleSort's block-local phases reuse (see
// core.Config.RealLocalSort); run standalone it shows why shearing the
// whole mesh loses to the paper's block-then-route structure. The report
// counts the shear iterations as MergeRounds.
func ShearSort(s grid.Shape, keys []int64, opts RunOpts) (pipeline.Report, error) {
	rep := pipeline.Report{Algorithm: "shearsort"}
	if err := s.Validate(); err != nil {
		return rep, fmt.Errorf("baseline: %w", err)
	}
	runner := opts.runner(s)
	if _, err := runner.InjectKeys(1, keys); err != nil {
		return rep, err
	}
	// One block spanning the whole mesh: its local snake order is the
	// global snake order.
	b := index.BlockedSnake(s, s.Side)
	if b.BlockCount() != 1 {
		return rep, fmt.Errorf("baseline: whole-mesh blocking produced %d blocks", b.BlockCount())
	}
	var st ShearStats
	err := runner.Run(pipeline.Local{Name: "shearsort", Kind: "shear", Apply: func(net *engine.Net) (cost int, err error) {
		st, err = ShearSortBlocks(net, b, []int{b.BlockAtOrder(0)})
		return 0, err
	}})
	rep = report(runner, "shearsort")
	rep.MergeRounds, rep.FallbackRounds = st.Iterations, st.Fallback
	if err != nil {
		return rep, err
	}

	net := runner.Net()
	var prev *engine.Packet
	rep.Sorted = true
	for idx := 0; idx < s.N(); idx++ {
		held := net.Held(b.RankAt(idx))
		if len(held) != 1 {
			rep.Sorted = false
			break
		}
		p := net.Packet(held[0])
		if prev != nil && (p.Key < prev.Key || (p.Key == prev.Key && p.ID < prev.ID)) {
			rep.Sorted = false
			break
		}
		prev = p
	}
	rep.Delivered = rep.Sorted
	return rep, nil
}

// report returns the runner's report of a baseline run. A baseline's
// "shear"-kind phase is one communication step per round, so its steps
// are reported as routing steps rather than charged oracle steps.
func report(runner *pipeline.Runner, alg string) pipeline.Report {
	rep := runner.Report()
	rep.Algorithm = alg
	rep.RouteSteps, rep.OracleSteps = rep.RouteSteps+rep.OracleSteps, 0
	return rep
}
