// Command meshsort runs one of the paper's algorithms on a configurable
// network and prints per-phase statistics.
//
// Usage:
//
//	meshsort -alg simple -d 3 -n 16 -b 4
//	meshsort -alg torussort -d 3 -n 16 -b 8 -seed 7
//	meshsort -alg route -d 3 -n 16 -b 4
//	meshsort -alg select -d 3 -n 16 -b 4
//	meshsort -alg greedyroute -d 3 -n 16 -faults 0.01 -fault-seed 7
//	meshsort -alg cliqueroute -n 128 -k 4
//	meshsort -alg traffic -d 3 -n 16 -load "lk:l=2,k=4" -inject window:128
//
// The command is a thin shell over internal/service: the flags become a
// service.JobSpec (every flag that changes the simulated result) and a
// service.Env (the flags that only change how the run executes or is
// observed: -workers, -shard-shift, -paranoid, -trace, -heat). The spec
// is canonicalized before anything is printed, so an invalid request
// writes one line to stderr and exits 2; service.Run then executes it
// through the same dispatch table the meshsortd job service uses. Only
// the service's admission ceilings (MaxSide and friends) do not apply:
// the CLI runs whatever fits in memory.
//
// -topo selects the network topology: mesh (default), torus (the same
// as -torus), or clique — the congested clique, where -n is the node
// count, -d is ignored, and the only algorithm is cliqueroute (greedy
// direct routing of a random k-relation, delivered in at most k steps).
//
// The -faults flag injects a deterministic random fault plan (a
// fraction of the links permanently failed) and switches routing to the
// fault-aware detouring policy; see the engine package docs for the
// fault model. -patience and -paranoid expose the engine's stranding
// budget and invariant checker.
//
// Algorithms: simple (Thm 3.1), copy (Thm 3.2), torussort (Thm 3.3),
// full (the 2D baseline), oddeven (transposition-sort baseline), shear
// (whole-mesh shearsort baseline), route (two-phase permutation
// routing, Thm 5.1/5.2), greedyroute (baseline; -policy picks its
// routing policy), cliqueroute (clique k-relation), traffic (timed
// many-to-many injection — -load picks the demand model, -inject the
// arrival schedule, and the report carries per-packet sojourn
// percentiles), select (Section 4.3).
//
// -trace emits one JSON line per completed pipeline phase (the
// service.PhaseTrace encoding) to stderr, straight from the phase
// observer the runner threads through every algorithm.
//
// -json replaces the text report with a single JSON object on stdout —
// the service.Result that service.Run returns, which is exactly what
// the meshsortd HTTP API serves for the same spec.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"meshsort/internal/engine"
	"meshsort/internal/pipeline"
	"meshsort/internal/service"
	"meshsort/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status: 0 on success, 2
// for a flag or spec error (nothing written to stdout), 1 when the run
// itself fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg    = fs.String("alg", "simple", "algorithm: simple|copy|torussort|full|oddeven|shear|route|greedyroute|cliqueroute|traffic|select")
		d      = fs.Int("d", 3, "dimension (ignored on the clique)")
		n      = fs.Int("n", 16, "side length (clique: node count)")
		b      = fs.Int("b", 4, "block side length")
		k      = fs.Int("k", 1, "packets per processor (simple and cliqueroute)")
		torus  = fs.Bool("torus", false, "use a torus instead of a mesh")
		tpo    = fs.String("topo", "", "topology: mesh|torus|clique (\"\" = mesh, or torus with -torus)")
		policy = fs.String("policy", "", "greedyroute policy override: greedy|dimorder (\"\" = the topology default)")
		seed   = fs.Uint64("seed", 1, "random seed")
		real   = fs.Bool("real", false, "simulate local sorts in-mesh (shearsort) instead of charging the cost model")
		alt    = fs.Bool("alt", false, "use the bias-corrected destination estimator (ablation E13)")
		work   = fs.Int("workers", 0, "engine shard workers (0 = GOMAXPROCS)")
		sshift = fs.Int("shard-shift", 0, "log2 processors per engine shard (0 = auto; clamped to [4,16])")
		pperm  = fs.String("perm", "random", "permutation for routing algorithms: random|reversal|transpose|hotspot")
		load   = fs.String("load", "", "traffic demand for -alg traffic: perm|k:<k>|lk:l=<l>,k=<k>|hotspot:frac=<f>,targets=<t>|partial:frac=<f> (\"\" = perm)")
		inject = fs.String("inject", "", "arrival schedule for -alg traffic: batch|window:<span>|trickle:<rate> (\"\" = batch)")
		heat   = fs.Bool("heat", false, "print an ASCII congestion heatmap after greedyroute (2-d meshes only)")
		mode   = fs.String("classes", "local", "greedyroute class assignment: zero|random|local (zero = plain greedy)")

		jsonOut = fs.Bool("json", false, "emit the final result as one JSON object on stdout instead of the text report")

		faults   = fs.Float64("faults", 0, "fraction of links to fail permanently (fault injection; 0 = perfect network)")
		fseed    = fs.Uint64("fault-seed", 1, "seed of the random fault plan")
		patience = fs.Int("patience", 0, "steps without progress before a packet is stranded (0 = auto when faults are on, negative = never)")
		paranoid = fs.Bool("paranoid", false, "run the engine's per-step invariant checker (slow)")
		trace    = fs.Bool("trace", false, "emit one JSON line per completed pipeline phase to stderr")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	defer stop()

	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })

	// Flags that change the simulated result go into the spec. A zero
	// spec field means the service default, which equals the flag
	// default for -perm and -classes, so those are passed only when
	// given; -b defaults to 4 everywhere, so it is passed to the
	// algorithms that use blocks and otherwise only when given.
	spec := service.JobSpec{
		Alg: *alg, Topology: *tpo, D: *d, N: *n, Torus: *torus, K: *k, Seed: *seed,
		Policy: *policy, Load: *load, Inject: *inject,
		RealLocalSort: *real, AltEstimator: *alt,
		Faults: *faults, FaultSeed: *fseed, Patience: *patience,
	}
	if *alg == service.AlgCliqueRoute || *tpo == service.TopologyClique {
		spec.D = 0 // the clique is flat
	}
	if given["perm"] {
		spec.Perm = *pperm
	}
	if given["classes"] {
		spec.Classes = *mode
	}
	switch *alg {
	case service.AlgOddEven, service.AlgShear, service.AlgTraffic, service.AlgCliqueRoute:
		if given["b"] {
			spec.B = *b
		}
	default:
		spec.B = *b
	}
	spec, err = spec.Canonicalize()
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}

	// One persistent worker pool and one runner serve every phase.
	pool := engine.NewPool(*work)
	defer pool.Close()
	env := service.Env{
		Runner: pipeline.New(pipeline.Config{Topo: spec.Topo(), Pool: pool}),
		Pool:   pool, ShardShift: *sshift, Paranoid: *paranoid, CountLoads: *heat,
	}
	if *trace {
		env.Observer = traceTo(stderr)
	}

	if !*jsonOut {
		tp := spec.Topo()
		if spec.Topology == service.TopologyClique {
			fmt.Fprintf(stdout, "%v: N=%d D=%d\n", tp, tp.N(), tp.Diameter())
		} else {
			fmt.Fprintf(stdout, "%v: N=%d D=%d block=%d\n", tp, tp.N(), tp.Diameter(), *b)
		}
		if plan := spec.FaultPlan(); plan != nil {
			fmt.Fprintf(stdout, "fault injection: %v\n", plan)
		}
	}
	res, err := service.Run(context.Background(), spec, env)
	if err != nil {
		// Degraded-routing aborts already carry their stranded/stuck
		// counts; the first stuck packet's diagnosis is appended as the
		// starting point for debugging.
		var de *engine.DegradedError
		if errors.As(err, &de) && len(de.Stuck) > 0 {
			fmt.Fprintf(stderr, "error: %v; first stuck: %v\n", err, de.Stuck[0])
		} else {
			fmt.Fprintln(stderr, "error:", err)
		}
		return 1
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		return 0
	}
	report(stdout, spec, res, env.Runner, *heat)
	return 0
}

// report renders the text report of a finished run. Everything comes
// from the Result, except greedyroute's stranded-packet diagnoses and
// heatmap, which read the runner's last route and network.
func report(w io.Writer, spec service.JobSpec, res service.Result, runner *pipeline.Runner, heat bool) {
	D := float64(res.Diameter)
	switch spec.Alg {
	case service.AlgSimple, service.AlgCopy, service.AlgTorusSort, service.AlgFull:
		fmt.Fprintf(w, "%s: sorted=%v\n", res.Algorithm, res.Sorted)
		fmt.Fprintf(w, "  routing steps: %d  (%.3f x D)\n", res.RouteSteps, float64(res.RouteSteps)/D)
		fmt.Fprintf(w, "  local (o(n))-charged steps: %d\n", res.OracleSteps)
		fmt.Fprintf(w, "  total: %d (%.3f x D), merge rounds: %d, max queue: %d\n",
			res.TotalSteps, float64(res.TotalSteps)/D, res.MergeRounds, res.MaxQueue)
		if res.Stranded > 0 {
			fmt.Fprintf(w, "  stranded: %d packets parked by the patience budget (degraded run)\n", res.Stranded)
		}
		if res.MaxPairDist > 0 {
			fmt.Fprintf(w, "  max pair distance after center sort: %d (%.3f x D; Lemma 3.3/3.4 bound ~0.5)\n",
				res.MaxPairDist, float64(res.MaxPairDist)/D)
		}
		printPhases(w, res.Phases)
	case service.AlgOddEven:
		fmt.Fprintf(w, "odd-even transposition: %d rounds (= steps), sorted=%v, %.2f x diameter\n",
			res.TotalSteps, res.Sorted, float64(res.TotalSteps)/D)
	case service.AlgShear:
		fmt.Fprintf(w, "whole-mesh shearsort: %d steps (%.2f x D), sorted=%v, %d iterations, %d fallback rounds\n",
			res.TotalSteps, float64(res.TotalSteps)/D, res.Sorted, res.MergeRounds, res.FallbackRounds)
	case service.AlgRoute:
		fmt.Fprintf(w, "two-phase routing: %d routing steps (bound D+2nu = %d), nu=%d effective=%d, delivered=%v",
			res.RouteSteps, res.Bound, res.Nu, res.EffectiveNu, res.Delivered)
		if res.Stranded > 0 {
			fmt.Fprintf(w, ", stranded=%d", res.Stranded)
		}
		fmt.Fprintln(w)
		printPhases(w, res.Phases)
	case service.AlgGreedyRoute:
		last := runner.LastRoute()
		fmt.Fprintf(w, "greedy routing of %s: %d steps (D=%d), max overshoot %d, max queue %d",
			spec.Perm, res.TotalSteps, res.Diameter, last.MaxOvershoot, res.MaxQueue)
		if res.Stranded > 0 {
			fmt.Fprintf(w, ", stranded %d", res.Stranded)
		}
		fmt.Fprintln(w)
		for i, diag := range last.Stranded {
			if i == 4 {
				fmt.Fprintf(w, "  ... and %d more\n", len(last.Stranded)-i)
				break
			}
			fmt.Fprintf(w, "  stranded: %v\n", diag)
		}
		if heat {
			printHeatmap(w, runner.Net())
		}
	case service.AlgTraffic:
		soj := res.Sojourn
		if soj == nil {
			soj = new(stats.LatencySummary)
		}
		fmt.Fprintf(w, "timed traffic %s under %s: %d packets in %d steps, delivered=%v, max queue %d",
			spec.Load, spec.Inject, soj.Count, res.TotalSteps, res.Delivered, res.MaxQueue)
		if res.Stranded > 0 {
			fmt.Fprintf(w, ", stranded %d", res.Stranded)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  sojourn (injection to delivery): p50=%d p95=%d p99=%d max=%d steps\n",
			soj.P50, soj.P95, soj.P99, soj.Max)
	case service.AlgCliqueRoute:
		fmt.Fprintf(w, "clique greedy routing of a %d-relation: %d steps (bound k=%d), delivered=%v, max queue %d",
			spec.K, res.TotalSteps, res.Bound, res.Delivered, res.MaxQueue)
		if res.Stranded > 0 {
			fmt.Fprintf(w, ", stranded %d", res.Stranded)
		}
		fmt.Fprintln(w)
	case service.AlgSelect:
		fmt.Fprintf(w, "selection: median=%d correct=%v, %d routing steps (%.2f D), %d candidates\n",
			res.Value, res.Delivered, res.RouteSteps, float64(res.RouteSteps)/D, res.Candidates)
		if res.Stranded > 0 {
			fmt.Fprintf(w, "  stranded: %d packets parked by the patience budget (degraded run)\n", res.Stranded)
		}
		printPhases(w, res.Phases)
	}
}

func printPhases(w io.Writer, phases []service.PhaseTrace) {
	for _, ph := range phases {
		if ph.Kind == pipeline.KindRoute {
			stranded := ""
			if ph.Stranded > 0 {
				stranded = fmt.Sprintf(" stranded=%d", ph.Stranded)
			}
			fmt.Fprintf(w, "  phase %-22s %5d steps  maxdist=%d overshoot=%d maxqueue=%d%s\n",
				ph.Name, ph.Steps, ph.MaxDist, ph.MaxOvershoot, ph.MaxQueue, stranded)
		} else {
			fmt.Fprintf(w, "  phase %-22s %5d steps  (charged %s)\n", ph.Name, ph.Steps, ph.Kind)
		}
	}
}

// traceTo is the -trace observer: one service.PhaseTrace JSON line per
// completed pipeline phase, written to w (stderr, so it composes with
// the stdout report).
func traceTo(w io.Writer) pipeline.Observer {
	return func(ph pipeline.PhaseStat) {
		line, err := json.Marshal(service.TracePhase(ph))
		if err != nil {
			return
		}
		fmt.Fprintln(w, string(line))
	}
}

// printHeatmap renders per-processor link load as an ASCII grid (2-d
// meshes; higher dimensions print per-dimension totals instead).
func printHeatmap(w io.Writer, net *engine.Net) {
	if !net.CountingLoads() {
		fmt.Fprintln(w, "congestion: load counting was not enabled")
		return
	}
	s := net.Shape
	prof := net.LoadProfile()
	if s.Dim != 2 {
		fmt.Fprintf(w, "congestion: total hops %d, max link load %d, by dimension %v\n",
			prof.Total, prof.Max, prof.ByDim)
		return
	}
	scale := " .:-=+*#%@"
	fmt.Fprintf(w, "congestion heatmap (max link load %d):\n", prof.Max)
	for r := 0; r < s.Side; r++ {
		row := make([]byte, s.Side)
		for c := 0; c < s.Side; c++ {
			rank := s.Rank([]int{r, c})
			var load int64
			for l := 0; l < 4; l++ {
				load += net.LinkLoad(rank, l)
			}
			idx := 0
			if prof.Max > 0 {
				idx = int(load * int64(len(scale)-1) / (4 * prof.Max))
				if idx >= len(scale) {
					idx = len(scale) - 1
				}
			}
			row[c] = scale[idx]
		}
		fmt.Fprintf(w, "  %s\n", row)
	}
}
