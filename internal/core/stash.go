package core

import (
	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/index"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
)

// centerKey names everything the compiled centerSort state depends on.
// Two configurations with equal keys produce identical indexing schemes,
// center regions, and phase programs, so a warm runner carrying a stash
// with a matching key re-runs without rebuilding any of them. Fields the
// program never reads (Seed, Pool, Observer, fault options) are
// deliberately absent: they live in the pipeline configuration, which
// Reset re-arms on every run.
type centerKey struct {
	shape       grid.Shape
	blockSide   int
	k           int
	centerCount int
	alt         bool
	real        bool
	costLS      int
	costMerge   int
}

// centerStash is the warm-run cache of centerSort, stored in
// pipeline.Runner.Stash. It holds the shape-derived immutables (indexing
// scheme, center region, block list, greedy policy), the compiled phase
// program with the scratch its closures write through (per-block id
// rows, merge-round counters), and the final-key slab — everything a
// steady-state SimpleSort re-run would otherwise reallocate. A run whose
// key differs simply builds a fresh stash; a run on a different runner
// rebuilds the program (its closures are bound to one runner's pool and
// worker-slot sorters).
type centerStash struct {
	key     centerKey
	blocked *index.Blocked
	region  grid.CenterRegion
	blocks  []int

	policy engine.Policy // plain greedy for key.shape; fault plans are never cached

	runner *pipeline.Runner // the runner prog's closures are bound to
	prog   []pipeline.Phase
	scan   *sortScan // compile-built scanner for the final check and key extraction

	// Closure-written per-run state, reset by centerSort before Run.
	rows1, rowsC [][]int32 // sorted id rows of the two local-sort phases
	mergeRounds  int
	sortedFlag   bool

	final []int64 // finalKeys slab; aliased by Result.Final on warm runs
}

// centerKeyOf derives the stash key from a validated configuration.
func centerKeyOf(cfg Config) centerKey {
	return centerKey{
		shape:       cfg.Shape,
		blockSide:   cfg.BlockSide,
		k:           cfg.k(),
		centerCount: cfg.CenterCount,
		alt:         cfg.AltEstimator,
		real:        cfg.RealLocalSort,
		costLS:      cfg.Cost.LocalSortFactor,
		costMerge:   cfg.Cost.MergeFactor,
	}
}

// centerState resolves the stash and runner for a centerSort run: a warm
// runner whose stash key matches reuses everything; otherwise the
// shape-derived state is rebuilt and (when the run has a warm runner to
// pin it to) installed as the runner's stash for the next run.
func centerState(cfg Config) (*centerStash, *pipeline.Runner) {
	key := centerKeyOf(cfg)
	var st *centerStash
	if cfg.Runner != nil {
		if prev, ok := cfg.Runner.Stash.(*centerStash); ok && prev.key == key {
			st = prev
		}
	}
	if st == nil {
		st = &centerStash{key: key, blocked: cfg.scheme()}
		count := cfg.CenterCount
		if count == 0 {
			count = st.blocked.BlockCount() / 2
		}
		st.region = grid.CenterBlocks(st.blocked.Spec, count)
		st.blocks = allBlocks(st.blocked)
	}
	var policy engine.Policy
	if cfg.Faults == nil {
		if st.policy == nil {
			st.policy = route.NewGreedy(cfg.Shape)
		}
		policy = st.policy
	} else {
		// Fault-aware detouring depends on the per-run plan; build fresh.
		policy = cfg.Policy(cfg.Shape)
	}
	runner := cfg.runnerWith(policy)
	if cfg.Runner != nil {
		cfg.Runner.Stash = st
	}
	if st.runner != runner {
		st.runner = runner
		st.prog = nil
	}
	return st, runner
}
