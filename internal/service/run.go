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
	// The three route.Run* algorithms return the engine's raw result (for
	// internal/exp's per-packet lists); their report is the runner's, and
	// is labelled here with one delivered rule.
	routed := func(alg string, net *engine.Net, err error) pipeline.Report {
		rep := env.Runner.Report()
		rep.Algorithm, rep.Delivered = alg, delivered(net, err)
		return rep
	}
	t := spec.Topo()
	if spec.Alg == AlgCliqueRoute {
		prob := perm.RandomRanksK(spec.N, spec.K, xmath.NewRNG(spec.Seed))
		_, net, err := route.RunTopoProblem(t, prob, batch)
		// Every clique node links directly to every other, so greedy
		// direct routing delivers a k-relation in at most k steps (each
		// directed link carries at most k packets, one per step): the
		// congested-clique analogue of the mesh theorems' D + o(n).
		rep := routed("CliqueGreedyRoute", net, err)
		rep.Bound = spec.K
		return encode(t, rep), err
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
		out := encode(t, res.Report)
		if res.Sorted {
			out.KeySum = KeySum(res.Final)
		}
		return out, err

	case AlgSelect:
		rep, err := core.Select(cfg, keys(), spec.Target)
		return encode(t, rep), err

	case AlgOddEven, AlgShear:
		opts := baseline.RunOpts{ShardShift: env.ShardShift, Pool: env.Pool, Observer: env.Observer, Runner: env.Runner}
		run := baseline.ShearSort
		if spec.Alg == AlgOddEven {
			run = baseline.RunOddEven
		}
		rep, err := run(shape, keys(), opts)
		return encode(t, rep), err

	case AlgRoute:
		cfg := core.RouteConfig{
			Shape: shape, BlockSide: spec.B, Seed: spec.Seed,
			ShardShift: env.ShardShift, Pool: env.Pool, Runner: env.Runner,
			Observer: env.Observer, FaultOpts: fo,
		}
		rep, err := core.TwoPhaseRoute(cfg, permProblem(spec))
		return encode(t, rep), err

	case AlgGreedyRoute:
		batch.BlockSide, batch.Seed, batch.CountLoads = spec.B, spec.Seed, env.CountLoads
		batch.Mode = map[string]route.ClassMode{
			"zero": route.ClassZero, "random": route.ClassRandom, "local": route.ClassLocalRank,
		}[spec.Classes]
		switch spec.Policy {
		case "greedy":
			batch.Policy = route.NewGreedy(shape)
		case "dimorder":
			batch.Policy = route.NewDimOrder(t)
		}
		_, net, err := route.RunProblem(shape, permProblem(spec), batch)
		return encode(t, routed("greedyroute", net, err)), err

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
		// Timed traffic has no theorem bound to record — the sojourn
		// percentiles are the result — so Bound stays 0.
		_, net, err := route.RunTimedLoad(t, ld, sc, batch)
		return encode(t, routed("TrafficRoute", net, err)), err
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
