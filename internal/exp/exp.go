// Package exp defines the reproduction experiments E1-E23 (see DESIGN.md
// §4 for the experiment index): each function regenerates one table of
// EXPERIMENTS.md from scratch and returns it. cmd/experiments prints
// them; the root BenchmarkExperimentsQuick drives E1, E4 and E12.
//
// Every table a JobSpec can express is a list of specs run through
// service.Run, the one algorithm dispatch table that cmd/meshsort and
// meshsortd share, so each of its rows is a run a user can submit (the
// meshsort flags for one row are in EXPERIMENTS.md). The rows no spec
// reaches, and the research measurements with no user-facing form, call
// internal/core, route, baseline or lb directly and say why.
//
// The paper is an extended abstract without numbered tables or figures;
// its evaluation *is* its set of theorems, so each experiment measures
// one theorem's quantity (simulated steps, distance slack, exact counts)
// and reports it next to the bound.
package exp

import (
	"context"
	"fmt"

	"meshsort/internal/core"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
	"meshsort/internal/service"
)

// Options tunes experiment size.
type Options struct {
	Quick bool   // smaller sweeps for CI-speed runs
	Seed  uint64 // base seed; 0 means 1
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// keySeed is the spec seed of the sorting tables: service.Run seeds a
// spec's keys with Seed+1, so their inputs are the keys seeded seed+17.
func (o Options) keySeed() uint64 { return o.seed() + 16 }

// sortCase is one (shape, block) point of a sorting sweep.
type sortCase struct {
	d, n, b int
}

func (c sortCase) mesh() grid.Shape { return grid.New(c.d, c.n) }

// spec is the job running alg on the case's network (the torus for
// torussort) with the given seed.
func (c sortCase) spec(alg string, seed uint64) service.JobSpec {
	return service.JobSpec{Alg: alg, D: c.d, N: c.n, B: c.b, Seed: seed}
}

// meshSweep lists the mesh sorting configurations. Block sides are
// chosen with at least 4 blocks per dimension where possible (so the
// center region is geometrically meaningful) and B^2 <= 2V where
// affordable (the paper's alpha >= 2/3 regime, keeping cleanup short).
func meshSweep(quick bool) []sortCase {
	if quick {
		return []sortCase{{2, 16, 4}, {2, 32, 8}, {3, 16, 4}}
	}
	return []sortCase{
		{2, 16, 4}, {2, 32, 8}, {2, 64, 16},
		{3, 16, 4}, {3, 32, 8},
		{4, 8, 4}, {4, 16, 4},
	}
}

func torusSweep(quick bool) []sortCase {
	if quick {
		return []sortCase{{2, 16, 4}, {3, 16, 4}}
	}
	return meshSweep(false)
}

// run executes one spec through service.Run on a fresh runner, as
// cmd/meshsort does, and panics on an invalid spec or a failed run:
// every experiment also certifies its runs, not just times them.
func run(spec service.JobSpec) service.Result {
	spec, err := spec.Canonicalize()
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	r := pipeline.New(pipeline.Config{Topo: spec.Topo()})
	res, err := service.Run(context.Background(), spec, service.Env{Runner: r})
	if err != nil {
		panic(fmt.Sprintf("exp: %s on %s: %v", spec.Alg, res.Shape, err))
	}
	return res
}

// deliver is run for a spec that must deliver: sort its keys, route
// every packet home, or certify its selection.
func deliver(spec service.JobSpec) service.Result {
	res := run(spec)
	if !res.Delivered {
		panic(fmt.Sprintf("exp: %s on %s b=%d did not deliver", res.Algorithm, res.Shape, spec.B))
	}
	return res
}

// sortDirect runs a sort that no JobSpec reaches (each caller says why)
// on the keys the sorting tables draw (seeded cfg.Seed+17), and panics
// unless it sorts.
func sortDirect(fn func(core.Config, []int64) (core.Result, error), cfg core.Config) core.Result {
	res, err := fn(cfg, core.RandomKeys(cfg.Shape, max(1, cfg.K), cfg.Seed+17))
	if err != nil {
		panic(fmt.Sprintf("exp: %s on %v b=%d: %v", res.Algorithm, cfg.Shape, cfg.BlockSide, err))
	}
	if !res.Sorted {
		panic(fmt.Sprintf("exp: %s on %v b=%d did not sort", res.Algorithm, cfg.Shape, cfg.BlockSide))
	}
	return res
}

// ratio is a/b, for table cells.
func ratio(a, b int) float64 { return float64(a) / float64(b) }
