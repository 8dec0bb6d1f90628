package route

import (
	"meshsort/internal/engine"
	"meshsort/internal/grid"
)

// FaultGreedy is the fault-aware variant of Greedy: it routes around
// permanently failed links instead of waiting on them forever. It only
// consults FaultPlan.PermDown, never the clock, so it stays a pure
// function of (rank, packet); transient outages remain invisible and are
// waited out at grant time like any contention.
//
// Each call works in two passes:
//
//  1. Profitable pass. The profitable links (one hop closer to the
//     destination) are scanned in the packet's class-rotation order,
//     skipping permanently failed ones. A link whose far end is the
//     destination is taken immediately; otherwise links whose far end is
//     "open" — it has at least one live profitable link of its own — are
//     preferred, and the first live profitable link is the fallback.
//     This one-hop lookahead is what breaks the sidestep ping-pong: the
//     node a packet just sidestepped away from has no live profitable
//     links (that is why it sidestepped), so it is never preferred over
//     a route that continues past the failure.
//  2. Sidestep pass, only when every profitable link is permanently
//     down. The packet moves one hop along a perpendicular dimension
//     (coordinate already correct), preferring the direction toward the
//     mesh center, but only onto a neighbor that is open in some other
//     dimension — stepping aside must actually unblock something.
//
// When both passes fail the packet does not move; its patience budget
// drains and the engine strands it with diagnostics. FaultGreedy
// implements engine.DetourPolicy (sidesteps move packets away from their
// destinations), so it must be routed with the fault/patience machinery
// rather than the plain monotone accounting.
type FaultGreedy struct {
	shape  grid.Shape
	co     coords
	faults *engine.FaultPlan
}

// NewFaultGreedy returns a fault-aware greedy policy for the shape. A
// nil plan is valid and makes it decide exactly like Greedy.
func NewFaultGreedy(s grid.Shape, f *engine.FaultPlan) *FaultGreedy {
	return &FaultGreedy{shape: s, co: newCoords(s), faults: f}
}

// Detours implements engine.DetourPolicy.
func (g *FaultGreedy) Detours() bool { return true }

// neighbor returns the rank one hop along (dim, dir) from rank, whose
// coordinate along dim is c; the caller guarantees the hop stays on the
// grid.
func (g *FaultGreedy) neighbor(rank, c, dim, dir int) int {
	pow := g.co.pows[dim]
	side := g.shape.Side
	if dir > 0 {
		if c == side-1 {
			return rank - (side-1)*pow
		}
		return rank + pow
	}
	if c == 0 {
		return rank + (side-1)*pow
	}
	return rank - pow
}

// towards returns the per-step-profitable directions from coordinate c
// to coordinate t along one dimension (c != t): one direction, or both
// on a torus ring tie, +1 first to match Greedy's tie-break.
func (g *FaultGreedy) towards(c, t int) (dirs [2]int, nd int) {
	side := g.shape.Side
	if g.shape.Torus {
		fwd := t - c // c and t lie in [0, side): no modulo needed
		if fwd < 0 {
			fwd += side
		}
		back := side - fwd
		switch {
		case fwd < back:
			return [2]int{1}, 1
		case back < fwd:
			return [2]int{-1}, 1
		default:
			return [2]int{1, -1}, 2
		}
	}
	if t > c {
		return [2]int{1}, 1
	}
	return [2]int{-1}, 1
}

// open reports whether a packet destined for dst could make profitable
// progress from rank over live links, ignoring dimension exceptDim
// (pass -1 to consider all). The destination itself is open.
func (g *FaultGreedy) open(rank, dst, exceptDim int) bool {
	if rank == dst {
		return true
	}
	for dim := 0; dim < g.shape.Dim; dim++ {
		if dim == exceptDim {
			continue
		}
		c, t := g.co.at(rank, dim), g.co.at(dst, dim)
		if c == t {
			continue
		}
		dirs, nd := g.towards(c, t)
		for i := 0; i < nd; i++ {
			if !g.faults.PermDown(rank, engine.LinkFor(dim, dirs[i])) {
				return true
			}
		}
	}
	return false
}

// NextLink implements engine.Policy.
func (g *FaultGreedy) NextLink(rank, dst, class int) int {
	d := g.shape.Dim
	side := g.shape.Side
	firstLive := -1
	dim := class
	for i := 0; i < d; i++ {
		c, t := g.co.at(rank, dim), g.co.at(dst, dim)
		if c != t {
			dirs, nd := g.towards(c, t)
			for j := 0; j < nd; j++ {
				l := engine.LinkFor(dim, dirs[j])
				if g.faults.PermDown(rank, l) {
					continue
				}
				nb := g.neighbor(rank, c, dim, dirs[j])
				if nb == dst {
					return l
				}
				if firstLive < 0 {
					firstLive = l
				}
				if g.open(nb, dst, -1) {
					return l
				}
			}
		}
		dim++
		if dim == d {
			dim = 0
		}
	}
	if firstLive >= 0 {
		return firstLive
	}
	// Every profitable link is permanently down: sidestep along a
	// perpendicular dimension onto a neighbor that is open elsewhere.
	dim = class
	for i := 0; i < d; i++ {
		c, t := g.co.at(rank, dim), g.co.at(dst, dim)
		if c == t {
			dirs := [2]int{1, -1}
			if !g.shape.Torus && 2*c >= side {
				dirs = [2]int{-1, 1} // prefer the direction toward the mesh center
			}
			for _, dir := range dirs {
				if !g.shape.Torus && ((dir > 0 && c == side-1) || (dir < 0 && c == 0)) {
					continue
				}
				l := engine.LinkFor(dim, dir)
				if g.faults.PermDown(rank, l) {
					continue
				}
				if g.open(g.neighbor(rank, c, dim, dir), dst, dim) {
					return l
				}
			}
		}
		dim++
		if dim == d {
			dim = 0
		}
	}
	// Boxed in: wait (and eventually strand under the patience budget).
	return -1
}
