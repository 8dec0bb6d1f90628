// Package pipeline is the one scheduler every algorithm of the
// reproduction runs on. The paper presents each of its algorithms as a
// literal numbered sequence of phases — SimpleSort's five steps
// (Theorem 3.1), CopySort/TorusSort's copy-and-merge rounds (Theorems
// 3.2/3.3), the two-phase routing of Section 5 — and this package makes
// that structure the program: an algorithm is a []Phase executed by a
// Runner that owns the network, the worker pool, fault injection, and
// all per-phase statistics.
//
// # Phase kinds
//
// Route is a simulated global routing phase: an optional Prepare hook
// assigns destinations and classes while the network is quiescent, then
// the engine's synchronous step loop runs until delivery. These are the
// phases the paper's D-proportional bounds are about; Route.Bound
// records the per-phase bound (for example ~3D/4 for SimpleSort's
// unshuffle steps, D/2 + nu for the Section 5 phases) on the resulting
// PhaseStat.
//
// Local is an oracle-costed local computation — the o(n) terms of the
// bounds (block-local sorts, class assignments; DESIGN.md substitution
// 2). Apply rearranges held packets atomically and returns the cost to
// charge to the clock. A Local phase may also advance the clock itself
// (the in-mesh shearsort of internal/baseline does); the runner records
// the sum of the measured advance and the returned cost.
//
// Loop is a Local phase repeated up to Max rounds — the paper's "repeat
// until sorted" cleanup (step (5), Lemma 3.1). Each executed round is
// recorded as its own PhaseStat, so merge-round counts stay visible.
//
// Inspect is a zero-cost barrier: a read-mostly hook recorded as a
// "check" stat, used for pair resolution (CopySort step (4)) and
// selection target identification — decisions the paper charges to the
// o(n) local phases at zero movement cost (DESIGN.md substitution 3).
//
// # How an algorithm maps onto a program
//
// SimpleSort (Theorem 3.1) is exactly:
//
//	Local  "local-sort-1"         step (1): sort within each block
//	Route  "unshuffle-to-center"  step (2): distribute over C, <= ~3D/4
//	Local  "local-sort-center"    step (3): sort the center blocks
//	Route  "route-to-destination" step (4): to estimated ranks, <= ~3D/4
//	Loop   "merge-round"          step (5): odd-even merges until sorted
//
// # Accounting
//
// The Runner is the only place PhaseStats are produced: Route stats come
// from engine.RouteResult (steps, distances, queue high-water, stranding,
// throughput), Local/Loop stats from the clock delta plus the returned
// cost. Each stat is folded into the runner's Report, the one record of
// a run: RouteSteps, OracleSteps, MaxQueue and Stranded, the sum of the
// route phases' bounds, and the last route phase's sojourn summary.
// TotalSteps always equals the final simulated clock. The algorithm's
// entry point labels the report (Algorithm, Delivered, Sorted), replaces
// Bound where its theorem bounds the whole run, and fills in its Extras;
// internal/service encodes that report as the wire result.
//
// A degraded run (engine livelock watchdog, MaxSteps; see
// *engine.DegradedError) truncates the program: Run returns the wrapped
// error, the Report keeps the completed prefix's stats, and TotalSteps still
// reflects the clock including the aborted phase's partial steps. The
// raw partial engine.RouteResult of the failing phase remains available
// via LastRoute.
//
// An Observer set in Config receives every PhaseStat as its phase
// completes; cmd/meshsort -trace exposes it as JSON lines.
package pipeline
