package service

import (
	"context"
	"fmt"

	"meshsort/internal/baseline"
	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
	"meshsort/internal/topo"
	"meshsort/internal/traffic"
	"meshsort/internal/xmath"
)

// Env is how and where a run executes: settings that cannot change its
// simulated result, and so stay out of the JobSpec and its cache Key.
// Anything that changes what a run computes is a JobSpec field instead.
type Env struct {
	// Runner is the warm pipeline runner the run executes on; every
	// algorithm Resets it to the spec's network first. Required: the
	// service leases one per job, cmd/meshsort builds one per process.
	Runner *pipeline.Runner
	// Pool is the persistent engine worker pool every routing phase
	// shares; nil means one worker, the caller's goroutine.
	Pool *engine.Pool
	// Observer, if set, receives every phase's PhaseStat as it completes.
	Observer pipeline.Observer
	// ShardShift overrides the engine's shard sizing (log2 processors
	// per shard; 0 means automatic, see engine.Net.ShardShift).
	ShardShift int
	// Paranoid runs the engine's per-step invariant checker (slow).
	Paranoid bool
	// CountLoads enables per-link load counting on greedyroute runs, for
	// congestion heatmaps read off Runner.Net() afterwards.
	CountLoads bool
}

// Run executes one canonical spec (see JobSpec.Canonicalize) on
// env.Runner and encodes the outcome. It is the one algorithm dispatch
// table of the repo: the service's workers and cmd/meshsort both call
// it. The context's Done channel is wired into the engine's cooperative
// cancellation hook: on cancellation or deadline the run stops at the
// next step or phase boundary and returns the partial Result encoded so
// far alongside the error, so timed-out jobs report what they measured.
// The fault plan is built here, on the caller's goroutine, not at
// admission.
func Run(ctx context.Context, spec JobSpec, env Env) (Result, error) {
	faults := spec.FaultPlan()
	fo := core.FaultOpts{Faults: faults, Patience: spec.Patience, Paranoid: env.Paranoid, Cancel: ctx.Done()}
	batch := route.BatchOpts{
		Pool: env.Pool, ShardShift: env.ShardShift, Observer: env.Observer, Runner: env.Runner,
		Faults: faults, Patience: spec.Patience, Paranoid: env.Paranoid, Cancel: ctx.Done(),
	}
	if spec.Alg == AlgCliqueRoute {
		c := topo.NewClique(spec.N)
		prob := perm.RandomRanksK(spec.N, spec.K, xmath.NewRNG(spec.Seed))
		res, net, err := route.RunTopoProblem(c, prob, batch)
		return fromCliqueRoute(res, env.Runner.Totals(), c, spec.K, delivered(net, err)), err
	}

	shape := spec.Shape()
	// Keys are seeded by Seed+1 and permutations by Seed, so the same
	// spec reproduces the same run through either caller.
	keys := func() []int64 { return core.RandomKeys(shape, spec.K, spec.Seed+1) }
	cfg := core.Config{
		Shape: shape, BlockSide: spec.B, K: spec.K, Seed: spec.Seed,
		RealLocalSort: spec.RealLocalSort, AltEstimator: spec.AltEstimator,
		ShardShift: env.ShardShift, Pool: env.Pool, Runner: env.Runner,
		Observer: env.Observer, FaultOpts: fo,
	}
	// The partial result is returned even on error: the algorithms
	// populate the phase prefix and clock before reporting cancellation
	// or degradation.
	switch spec.Alg {
	case AlgSimple, AlgCopy, AlgTorusSort, AlgFull:
		sortAlg := map[string]func(core.Config, []int64) (core.Result, error){
			AlgSimple:    core.SimpleSort,
			AlgCopy:      core.CopySort,
			AlgTorusSort: core.TorusSort,
			AlgFull:      core.FullSort,
		}[spec.Alg]
		res, err := sortAlg(cfg, keys())
		return fromSort(res), err

	case AlgSelect:
		res, err := core.Select(cfg, keys(), spec.Target)
		return fromSelect(res, shape), err

	case AlgOddEven, AlgShear:
		opts := baseline.RunOpts{ShardShift: env.ShardShift, Pool: env.Pool, Observer: env.Observer, Runner: env.Runner}
		if spec.Alg == AlgOddEven {
			res, err := baseline.RunOddEven(shape, keys(), opts)
			return fromOddEven(res, env.Runner.Totals(), shape), err
		}
		res, err := baseline.ShearSort(shape, keys(), opts)
		return fromShear(res, shape), err

	case AlgRoute:
		cfg := core.RouteConfig{
			Shape: shape, BlockSide: spec.B, Seed: spec.Seed,
			ShardShift: env.ShardShift, Pool: env.Pool, Runner: env.Runner,
			Observer: env.Observer, FaultOpts: fo,
		}
		res, err := core.TwoPhaseRoute(cfg, permProblem(spec))
		return fromRouteAlg(res, shape), err

	case AlgGreedyRoute:
		batch.BlockSide, batch.Seed, batch.CountLoads = spec.B, spec.Seed, env.CountLoads
		batch.Mode = map[string]route.ClassMode{
			"zero": route.ClassZero, "random": route.ClassRandom, "local": route.ClassLocalRank,
		}[spec.Classes]
		switch spec.Policy {
		case "greedy":
			batch.Policy = route.NewGreedy(shape)
		case "dimorder":
			batch.Policy = route.NewDimOrder(topo.FromShape(shape))
		}
		res, _, err := route.RunProblem(shape, permProblem(spec), batch)
		return fromGreedyRoute(res, env.Runner.Totals(), shape), err

	case AlgTraffic:
		ld, err := traffic.ParseLoad(spec.Load)
		if err != nil {
			return Result{}, err
		}
		sc, err := traffic.ParseSchedule(spec.Inject)
		if err != nil {
			return Result{}, err
		}
		// The demand and the arrival process draw from distinct seeded
		// streams, so changing the schedule never reshuffles the load.
		ld.Seed = spec.Seed
		sc.Seed = spec.Seed + 1
		res, net, err := route.RunTimedLoad(topo.FromShape(shape), ld, sc, batch)
		return fromTraffic(res, env.Runner.Totals(), shape, delivered(net, err)), err
	}
	return Result{}, fmt.Errorf("service: unknown alg %q", spec.Alg)
}

// delivered reports whether a routing run that returned err rests every
// packet at its destination; a stranded packet is held wherever its
// patience ran out.
func delivered(net *engine.Net, err error) bool {
	ok := err == nil
	if ok {
		net.ForEachHeld(func(rank int, p *engine.Packet) {
			if p.Dst != rank {
				ok = false
			}
		})
	}
	return ok
}

// permProblem builds the routing problem of a canonical alg=route or
// alg=greedyroute spec.
func permProblem(spec JobSpec) perm.Problem {
	shape := spec.Shape()
	switch spec.Perm {
	case "reversal":
		return perm.Reversal(shape)
	case "transpose":
		return perm.Transpose(shape)
	case "hotspot":
		return perm.HotSpot(shape)
	}
	return perm.Random(shape, xmath.NewRNG(spec.Seed))
}
