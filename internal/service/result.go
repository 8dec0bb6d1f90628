package service

import (
	"fmt"
	"hash/fnv"

	"meshsort/internal/pipeline"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
)

// Result is the JSON encoding of one completed simulation. It is the
// wire type of the HTTP API and of cmd/meshsort -json, built from the
// run's pipeline.Report by encode, the one place a Result is made.
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
	// bounds for the sorts, the diameter for selection, and k for a
	// k-relation on the clique.
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

// encode builds the wire Result of a run on topology t from its report.
// It also encodes partial runs (cancelled, timed out, or degraded
// mid-program): the phase prefix and clock are real. The sorts' KeySum
// is added by the caller, and only for a sorted
// run — a digest of a half-routed key placement would be noise
// masquerading as a witness.
func encode(t topo.Topology, rep pipeline.Report) Result {
	r := Result{
		Algorithm:      rep.Algorithm,
		Shape:          t.String(),
		N:              t.N(),
		Diameter:       t.Diameter(),
		Delivered:      rep.Delivered,
		Sorted:         rep.Sorted,
		Bound:          rep.Bound,
		TotalSteps:     rep.TotalSteps,
		RouteSteps:     rep.RouteSteps,
		OracleSteps:    rep.OracleSteps,
		MaxQueue:       rep.MaxQueue,
		Stranded:       rep.Stranded,
		MergeRounds:    rep.MergeRounds,
		MaxPairDist:    rep.MaxPairDist,
		FallbackRounds: rep.FallbackRounds,
		Nu:             rep.Nu,
		EffectiveNu:    rep.EffectiveNu,
		Target:         rep.Target,
		Value:          rep.Value,
		Candidates:     rep.Candidates,
		Phases:         make([]PhaseTrace, len(rep.Phases)),
	}
	if rep.Sojourn.Count > 0 {
		soj := rep.Sojourn
		r.Sojourn = &soj
	}
	for i, ph := range rep.Phases {
		r.Phases[i] = TracePhase(ph)
	}
	return r
}
