package engine

import (
	"errors"
	"fmt"

	"meshsort/internal/grid"
	"meshsort/internal/topo"
	"meshsort/internal/xmath"
)

// FaultPlan is a deterministic description of the failures injected into
// a routing phase: permanent link failures, transient link outages over
// clock intervals, and dead processors. The step loop consults the plan
// at grant time — a packet granted a down link simply does not move that
// step — so a plan turns any policy into a degraded run without touching
// the policy itself (see RouteOpts.Faults).
//
// Faults are expressed on physical links: failing a link takes down both
// directed sides of the edge. A dead processor is the failure of every
// edge incident to it, which makes it unable to send or receive; packets
// held at or destined for a dead processor are eventually stranded by
// the patience mechanism (see RouteOpts.Patience).
//
// A plan is immutable during routing: build it (FailLink, FailProcessor,
// Outage, or RandomFaultPlan), then route with it. All constructors are
// deterministic, so runs with the same plan and seed are bit-identical
// for every worker count. A nil *FaultPlan is valid everywhere a plan is
// accepted and means "no faults".
type FaultPlan struct {
	tp    topo.Topology
	links int // directed links per processor, Topology.Links()

	perm      []uint64         // bitset over directed links: permanently down
	transient []uint64         // bitset: link has at least one outage window
	outages   map[int][]Outage // directed link index -> outage windows

	downEdges int   // physical edges failed permanently
	dead      []int // processors failed via FailProcessor, in call order
}

// Outage is a transient link failure over the clock interval [From, To)
// in simulated steps.
type Outage struct {
	From, To int
}

// NewFaultPlan returns an empty plan for the given mesh/torus shape.
func NewFaultPlan(s grid.Shape) *FaultPlan {
	return NewFaultPlanTopo(topo.FromShape(s))
}

// NewFaultPlanTopo returns an empty plan for the given topology.
func NewFaultPlanTopo(t topo.Topology) *FaultPlan {
	links := t.Links()
	words := (t.N()*links + 63) / 64
	return &FaultPlan{
		tp:        t,
		links:     links,
		perm:      make([]uint64, words),
		transient: make([]uint64, words),
		outages:   make(map[int][]Outage),
	}
}

// RandomFaultPlan fails each physical edge of the shape independently
// with the given probability, deterministically in the seed. A rate of 0
// returns a valid empty plan.
//
// The enumeration order below is part of the deterministic contract
// (experiment outputs depend on it byte for byte), so it is kept as the
// historical mesh-specific walk rather than delegating to the generic
// RandomFaultPlanTopo, whose edge order differs.
func RandomFaultPlan(s grid.Shape, rate float64, seed uint64) *FaultPlan {
	f := NewFaultPlan(s)
	if rate <= 0 {
		return f
	}
	rng := xmath.NewRNG(seed).Split(0xfa017)
	// Enumerate each physical edge exactly once: the (dim, +1) link of
	// every rank where it is legal. On a torus this includes the wrap
	// edges; on a side-2 torus the two directed links of a dimension are
	// two distinct physical edges and both are enumerated.
	for rank := 0; rank < s.N(); rank++ {
		for dim := 0; dim < s.Dim; dim++ {
			if !s.Torus && s.Coord(rank, dim) == s.Side-1 {
				continue
			}
			if rng.Float64() < rate {
				f.FailLink(rank, LinkFor(dim, 1))
			}
		}
	}
	return f
}

// RandomFaultPlanTopo fails each physical edge of the topology
// independently with the given probability, deterministically in the
// seed. Each edge is enumerated exactly once, from the side whose
// (rank, link) pair is lexicographically smaller than its Reverse —
// which also counts both physical edges between a side-2 torus pair.
// Note the edge order differs from RandomFaultPlan's mesh walk, so the
// same (shape, rate, seed) yields a different plan through the two
// constructors.
func RandomFaultPlanTopo(t topo.Topology, rate float64, seed uint64) *FaultPlan {
	f := NewFaultPlanTopo(t)
	if rate <= 0 {
		return f
	}
	rng := xmath.NewRNG(seed).Split(0xfa017)
	for rank := 0; rank < t.N(); rank++ {
		for link := 0; link < f.links; link++ {
			recv, back, ok := t.Reverse(rank, link)
			if !ok {
				continue
			}
			if recv < rank || (recv == rank && back < link) {
				continue // the far side already enumerated this edge
			}
			if rng.Float64() < rate {
				f.FailLink(rank, link)
			}
		}
	}
	return f
}

func (f *FaultPlan) idx(rank, link int) int { return rank*f.links + link }

func (f *FaultPlan) setPerm(idx int) bool {
	w, b := idx>>6, uint(idx)&63
	if f.perm[w]&(1<<b) != 0 {
		return false
	}
	f.perm[w] |= 1 << b
	return true
}

// FailLink permanently fails the physical edge behind the directed link
// (both directions). It panics if the link carries no edge (a mesh
// boundary link) — there is no edge there to fail.
func (f *FaultPlan) FailLink(rank, link int) {
	nb, back, ok := f.tp.Reverse(rank, link)
	if !ok {
		panic(fmt.Sprintf("engine: FailLink(%d, %d): no edge off the network boundary", rank, link))
	}
	fresh := f.setPerm(f.idx(rank, link))
	f.setPerm(f.idx(nb, back))
	if fresh {
		f.downEdges++
	}
}

// FailProcessor permanently fails every edge incident to the processor,
// making it unable to send or receive. Packets held at or destined for
// it can never be delivered; the patience mechanism strands them (see
// RouteOpts.Patience).
func (f *FaultPlan) FailProcessor(rank int) {
	for link := 0; link < f.links; link++ {
		if _, _, ok := f.tp.Reverse(rank, link); ok {
			f.FailLink(rank, link)
		}
	}
	f.dead = append(f.dead, rank)
}

// Outage fails the physical edge behind the directed link for the clock
// interval [from, to), in simulated steps (Net.Clock time, which runs
// across phases). Like FailLink it panics on a boundary link.
func (f *FaultPlan) Outage(rank, link, from, to int) {
	if from >= to {
		panic(fmt.Sprintf("engine: Outage(%d, %d): empty interval [%d, %d)", rank, link, from, to))
	}
	nb, back, ok := f.tp.Reverse(rank, link)
	if !ok {
		panic(fmt.Sprintf("engine: Outage(%d, %d): no edge off the network boundary", rank, link))
	}
	for _, i := range [2]int{f.idx(rank, link), f.idx(nb, back)} {
		f.transient[i>>6] |= 1 << (uint(i) & 63)
		f.outages[i] = append(f.outages[i], Outage{From: from, To: to})
	}
}

// LinkDown reports whether the directed link is unusable at the given
// clock step (permanent failure or an active outage window). Nil-safe;
// this is the grant-time query on the engine's hot path, so it stays
// within the inlining budget (go build -gcflags=-m lists it): the
// outage scan is a separate method, reached only for links with a
// transient bit.
func (f *FaultPlan) LinkDown(rank, link, clock int) bool {
	if f == nil {
		return false
	}
	i := rank*f.links + link
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	return f.perm[w]&b != 0 || f.transient[w]&b != 0 && f.inOutage(i, clock)
}

// inOutage reports whether one of directed link i's outage windows
// covers the clock step.
func (f *FaultPlan) inOutage(i, clock int) bool {
	for _, o := range f.outages[i] {
		if clock >= o.From && clock < o.To {
			return true
		}
	}
	return false
}

// PermDown reports whether the directed link is permanently failed.
// Nil-safe. Fault-aware policies use this (rather than LinkDown) so they
// stay pure functions of (rank, packet): transient outages are invisible
// to policies and enforced only at grant time, which makes waiting — the
// right response to a transient fault — the automatic behavior.
func (f *FaultPlan) PermDown(rank, link int) bool {
	if f == nil {
		return false
	}
	i := f.idx(rank, link)
	return f.perm[i>>6]&(1<<(uint(i)&63)) != 0
}

// DownEdges returns the number of permanently failed physical edges.
func (f *FaultPlan) DownEdges() int {
	if f == nil {
		return 0
	}
	return f.downEdges
}

// DeadProcessors returns the processors failed via FailProcessor.
func (f *FaultPlan) DeadProcessors() []int {
	if f == nil {
		return nil
	}
	return append([]int(nil), f.dead...)
}

// String implements fmt.Stringer.
func (f *FaultPlan) String() string {
	if f == nil {
		return "no faults"
	}
	return fmt.Sprintf("faults(%v): %d edges down, %d outage windows, %d dead processors",
		f.tp, f.downEdges, len(f.outages)/2, len(f.dead))
}

// PacketDiag describes one packet that a routing phase could not
// deliver: where it sits, how far it still has to go, and which links it
// would need. Captured when a packet is stranded (RouteResult.Stranded)
// or when a phase aborts with packets still moving (RouteResult.Stuck).
type PacketDiag struct {
	ID     int   // packet id
	Key    int64 // packet key, for caller-side correlation
	Rank   int   // processor where the packet sits
	Dst    int   // destination it could not reach
	Dist   int   // remaining distance to Dst
	Waited int   // consecutive steps without progress when captured

	// Wants lists the links at Rank that would reduce Dist (the packet's
	// profitable links); Blocked is the subset unusable under the fault
	// plan at capture time. Wants == Blocked means the packet was boxed
	// in; Wants empty means it sat at its destination's rank already
	// (impossible for stranded packets) or had no profitable move.
	Wants   []int
	Blocked []int
}

// String implements fmt.Stringer.
func (d PacketDiag) String() string {
	return fmt.Sprintf("packet %d at rank %d: %d hops from destination %d after %d steps without progress (wants links %v, blocked %v)",
		d.ID, d.Rank, d.Dist, d.Dst, d.Waited, d.Wants, d.Blocked)
}

// ErrCancelled is the sentinel every cooperative-cancellation error
// wraps (errors.Is works across the engine, pipeline, and service
// layers). A cancelled phase is not a network failure: the partial
// RouteResult is valid and the network is quiescent, exactly as for a
// *DegradedError abort.
var ErrCancelled = errors.New("engine: routing cancelled")

// CancelledError reports a routing phase stopped at a step boundary
// because RouteOpts.Cancel fired. Unlike DegradedError it carries no
// stuck-packet snapshot: cancellation is latency-sensitive (a caller is
// waiting for the phase to yield), so the phase returns without the
// O(N) diagnostic scan.
type CancelledError struct {
	Steps       int // steps the phase completed before the cancel
	Undelivered int // packets still moving at cancel time
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("engine: routing cancelled after %d steps (%d packets undelivered)", e.Steps, e.Undelivered)
}

// Unwrap makes errors.Is(err, ErrCancelled) hold.
func (e *CancelledError) Unwrap() error { return ErrCancelled }

// DegradedError reports a routing phase that ended abnormally — the
// no-progress watchdog fired or MaxSteps was exceeded — together with a
// quiescent-state snapshot of the packets still in flight. The partial
// RouteResult returned alongside it is valid: the network is consistent
// (all packets accounted for, none mid-link), so callers can inspect,
// report, and retry.
type DegradedError struct {
	Reason      string       // what aborted the phase, e.g. "made no progress for 64 steps"
	Steps       int          // steps the phase ran
	Undelivered int          // packets still moving at abort time
	Stranded    int          // packets stranded before the abort
	Stuck       []PacketDiag // snapshot of the still-moving packets, in rank order
}

// Error implements error as a single line including the stranded/stuck
// counts, so command-line consumers get a complete diagnostic for free.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("engine: routing %s: %d packets undelivered after %d steps (%d stranded, %d stuck)",
		e.Reason, e.Undelivered+e.Stranded, e.Steps, e.Stranded, e.Undelivered)
}
