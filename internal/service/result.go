package service

import (
	"fmt"
	"hash/fnv"

	"meshsort/internal/baseline"
	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
)

// Result is the JSON encoding of one completed simulation. It is the
// wire type of the HTTP API and of cmd/meshsort -json, built from the
// algorithm packages' result types by the from* constructors below.
// Everything except the per-phase throughput figures is deterministic
// in the canonical spec; the cache stores the first run's Result
// verbatim, so repeated jobs return byte-identical bodies.
type Result struct {
	Algorithm string `json:"algorithm"`
	Shape     string `json:"shape"` // e.g. "3d-mesh(n=16)"
	N         int    `json:"processors"`
	Diameter  int    `json:"diameter"`

	// Delivered reports the run's success criterion: sortedness for the
	// sorting algorithms, full delivery for routing, a certified answer
	// for selection.
	Delivered bool `json:"delivered"`
	Sorted    bool `json:"sorted,omitempty"`

	// Bound is the paper's step bound for the run's routing phases: the
	// theorem bound D + 2nu for routing, the sum of the per-phase route
	// bounds for the sorts, and the diameter for selection.
	Bound int `json:"bound"`

	TotalSteps  int `json:"totalSteps"`
	RouteSteps  int `json:"routeSteps"`
	OracleSteps int `json:"oracleSteps"`
	MaxQueue    int `json:"maxQueue"`
	Stranded    int `json:"stranded,omitempty"`
	MergeRounds int `json:"mergeRounds,omitempty"`
	// MaxPairDist is the largest distance between a packet and its copy
	// after the center sort (copy and torussort; Lemmas 3.3/3.4).
	MaxPairDist int `json:"maxPairDist,omitempty"`
	// FallbackRounds counts the transposition rounds whole-mesh
	// shearsort (alg=shear) fell back to; 0 for a pure shearsort.
	FallbackRounds int `json:"fallbackRounds,omitempty"`

	// Routing (alg=route) extras.
	Nu          int `json:"nu,omitempty"`
	EffectiveNu int `json:"effectiveNu,omitempty"`

	// Selection (alg=select) extras.
	Target     int   `json:"target,omitempty"`
	Value      int64 `json:"value,omitempty"`
	Candidates int   `json:"candidates,omitempty"`

	// Sojourn is the per-packet latency distribution (injection to
	// delivery, in steps) of a timed traffic run (alg=traffic): count and
	// p50/p95/p99/max percentiles. Omitted when the run observed none.
	Sojourn *stats.LatencySummary `json:"sojourn,omitempty"`

	// KeySum is an FNV-1a digest of the final key sequence in sort-index
	// order (sorting algorithms only): a compact witness that the run
	// produced exactly the expected output, used by the aliasing tests.
	KeySum string `json:"keySum,omitempty"`

	Phases []PhaseTrace `json:"phases"`
}

// PhaseTrace is the JSON encoding of one pipeline.PhaseStat, shared by
// the HTTP results, cmd/meshsort -json, and cmd/meshsort -trace.
type PhaseTrace struct {
	Name           string  `json:"name"`
	Kind           string  `json:"kind"`
	Steps          int     `json:"steps"`
	Bound          int     `json:"bound,omitempty"`
	MaxDist        int     `json:"maxDist,omitempty"`
	MaxOvershoot   int     `json:"maxOvershoot,omitempty"`
	MaxQueue       int     `json:"maxQueue,omitempty"`
	Hops           int64   `json:"hops,omitempty"`
	Stranded       int     `json:"stranded,omitempty"`
	StepsPerSec    float64 `json:"stepsPerSec,omitempty"`
	PacketsPerStep float64 `json:"packetsPerStep,omitempty"`
	WorkerUtil     float64 `json:"workerUtil,omitempty"`
	// Sojourn carries the phase's per-packet latency percentiles when the
	// phase routed with sojourn accounting (timed traffic phases).
	Sojourn *stats.LatencySummary `json:"sojourn,omitempty"`
}

// TracePhase encodes one phase stat.
func TracePhase(ph pipeline.PhaseStat) PhaseTrace {
	t := PhaseTrace{
		Name: ph.Name, Kind: ph.Kind, Steps: ph.Steps, Bound: ph.Bound,
		MaxDist: ph.MaxDist, MaxOvershoot: ph.MaxOvershoot,
		MaxQueue: ph.MaxQueue, Hops: ph.Hops, Stranded: ph.Stranded,
		StepsPerSec:    ph.StepsPerSec,
		PacketsPerStep: ph.PacketsPerStep,
		WorkerUtil:     ph.WorkerUtil,
	}
	if ph.Sojourn.Count > 0 {
		soj := ph.Sojourn
		t.Sojourn = &soj
	}
	return t
}

func tracePhases(phases []pipeline.PhaseStat) []PhaseTrace {
	out := make([]PhaseTrace, len(phases))
	for i, ph := range phases {
		out[i] = TracePhase(ph)
	}
	return out
}

// routeBoundSum totals the per-phase theorem bounds of the routing
// phases: the paper's step budget for the run's packet movement.
func routeBoundSum(phases []pipeline.PhaseStat) int {
	sum := 0
	for _, ph := range phases {
		if ph.Kind == pipeline.KindRoute {
			sum += ph.Bound
		}
	}
	return sum
}

// KeySum digests a final key sequence (k keys per sort index, in index
// order) as the compact output witness carried in Result.KeySum.
func KeySum(keys []int64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(k) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fromSort encodes a sorting run (SimpleSort, CopySort, TorusSort,
// FullSort). It also encodes partial runs (cancelled, timed out, or
// degraded mid-program): the phase prefix and clock are real, Sorted is
// false, and KeySum is omitted — a digest of a half-routed key placement
// would be noise masquerading as a witness.
func fromSort(res core.Result) Result {
	s := res.Config.Shape
	keySum := ""
	if res.Sorted {
		keySum = KeySum(res.Final)
	}
	return Result{
		Algorithm:   res.Algorithm,
		Shape:       s.String(),
		N:           s.N(),
		Diameter:    s.Diameter(),
		Delivered:   res.Sorted,
		Sorted:      res.Sorted,
		Bound:       routeBoundSum(res.Phases),
		TotalSteps:  res.TotalSteps,
		RouteSteps:  res.RouteSteps,
		OracleSteps: res.OracleSteps,
		MaxQueue:    res.MaxQueue,
		Stranded:    res.Stranded,
		MergeRounds: res.MergeRounds,
		MaxPairDist: res.MaxPairDist,
		KeySum:      keySum,
		Phases:      tracePhases(res.Phases),
	}
}

// fromRouteAlg encodes a two-phase routing run.
func fromRouteAlg(res core.RouteAlgResult, shape grid.Shape) Result {
	return Result{
		Algorithm:   res.Algorithm,
		Shape:       shape.String(),
		N:           shape.N(),
		Diameter:    shape.Diameter(),
		Delivered:   res.Delivered,
		Bound:       res.Bound,
		TotalSteps:  res.TotalSteps,
		RouteSteps:  res.RouteSteps,
		OracleSteps: res.OracleSteps,
		MaxQueue:    res.MaxQueue,
		Stranded:    res.Stranded,
		Nu:          res.Nu,
		EffectiveNu: res.EffectiveNu,
		Phases:      tracePhases(res.Phases),
	}
}

// fromCliqueRoute encodes a direct greedy k-relation run on the
// congested clique. Bound is k: every node has a direct link to every
// other, so greedy direct routing delivers a k-relation in at most k
// steps (each directed link carries at most k packets, one per step) —
// the congested-clique analogue of the mesh theorems' D + o(n).
func fromCliqueRoute(res engine.RouteResult, tot pipeline.Totals, c *topo.Clique, k int, delivered bool) Result {
	return Result{
		Algorithm:  "CliqueGreedyRoute",
		Shape:      c.String(),
		N:          c.N(),
		Diameter:   c.Diameter(),
		Delivered:  delivered,
		Bound:      k,
		TotalSteps: tot.TotalSteps,
		RouteSteps: tot.RouteSteps,
		MaxQueue:   res.MaxQueue,
		Stranded:   len(res.Stranded),
		Phases:     tracePhases(tot.Phases),
	}
}

// fromTraffic encodes a timed traffic run (alg=traffic): direct greedy
// routing of a scheduled demand, measured by its sojourn distribution.
// There is no theorem bound to record — the latency percentiles are the
// result — so Bound stays 0.
func fromTraffic(res engine.RouteResult, tot pipeline.Totals, shape grid.Shape, delivered bool) Result {
	r := Result{
		Algorithm:  "TrafficRoute",
		Shape:      shape.String(),
		N:          shape.N(),
		Diameter:   shape.Diameter(),
		Delivered:  delivered,
		TotalSteps: tot.TotalSteps,
		RouteSteps: tot.RouteSteps,
		MaxQueue:   res.MaxQueue,
		Stranded:   len(res.Stranded),
		Phases:     tracePhases(tot.Phases),
	}
	if res.Sojourn.Count > 0 {
		soj := res.Sojourn
		r.Sojourn = &soj
	}
	return r
}

// fromOddEven encodes an odd-even transposition run (alg=oddeven).
// Each transposition round is one communication step, counted as a
// routing step; the baseline has no theorem bound, so Bound stays 0.
func fromOddEven(res baseline.OddEvenResult, tot pipeline.Totals, shape grid.Shape) Result {
	return Result{
		Algorithm:  "oddeven",
		Shape:      shape.String(),
		N:          shape.N(),
		Diameter:   shape.Diameter(),
		Delivered:  res.Sorted,
		Sorted:     res.Sorted,
		TotalSteps: res.Rounds,
		RouteSteps: res.Rounds,
		Phases:     tracePhases(tot.Phases),
	}
}

// fromShear encodes a whole-mesh shearsort run (alg=shear); its shear
// iterations are reported as merge rounds.
func fromShear(res baseline.ShearSortResult, shape grid.Shape) Result {
	return Result{
		Algorithm:      "shearsort",
		Shape:          shape.String(),
		N:              shape.N(),
		Diameter:       shape.Diameter(),
		Delivered:      res.Sorted,
		Sorted:         res.Sorted,
		TotalSteps:     res.Steps,
		RouteSteps:     res.Steps,
		MergeRounds:    res.Iterations,
		FallbackRounds: res.Fallback,
		Phases:         tracePhases(res.Phases),
	}
}

// fromGreedyRoute encodes a one-phase greedy permutation routing run
// (alg=greedyroute). Delivered means nothing was stranded; the
// baseline has no theorem bound, so Bound stays 0.
func fromGreedyRoute(res engine.RouteResult, tot pipeline.Totals, shape grid.Shape) Result {
	return Result{
		Algorithm:  "greedyroute",
		Shape:      shape.String(),
		N:          shape.N(),
		Diameter:   shape.Diameter(),
		Delivered:  len(res.Stranded) == 0,
		TotalSteps: res.Steps,
		RouteSteps: res.Steps,
		MaxQueue:   res.MaxQueue,
		Stranded:   len(res.Stranded),
		Phases:     tracePhases(tot.Phases),
	}
}

// fromSelect encodes a selection run.
func fromSelect(res core.SelectResult, shape grid.Shape) Result {
	return Result{
		Algorithm:   res.Algorithm,
		Shape:       shape.String(),
		N:           shape.N(),
		Diameter:    shape.Diameter(),
		Delivered:   res.Correct,
		Bound:       shape.Diameter(),
		TotalSteps:  res.TotalSteps,
		RouteSteps:  res.RouteSteps,
		OracleSteps: res.OracleSteps,
		MaxQueue:    res.MaxQueue,
		Target:      res.Target,
		Value:       res.Value,
		Candidates:  res.Candidates,
		Phases:      tracePhases(res.Phases),
	}
}
