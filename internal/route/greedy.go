// Package route implements the routing schemes of Section 2.2 of the
// paper on top of the engine: the standard dimension-order greedy scheme
// with farthest-distance-first contention resolution, and its extension
// that routes several permutations simultaneously by running d rotated
// copies of the greedy scheme (selected per packet by Packet.Class).
package route

import (
	"meshsort/internal/engine"
	"meshsort/internal/grid"
)

// Greedy is the (extended) greedy routing policy. A packet of class c
// corrects its coordinates along dimensions c, c+1, ..., c-1 (mod d), one
// dimension at a time, always moving toward its destination; on the torus
// it takes the shorter way around each ring (ties broken toward +1).
// Contention on a link is resolved by the engine in favor of the packet
// with the farthest remaining distance.
//
// With all classes zero this is the standard greedy scheme; with classes
// spread over [d] it is the extended scheme of Lemmas 2.1-2.3.
type Greedy struct {
	shape grid.Shape
	co    coords
}

// NewGreedy returns a greedy policy for the given shape.
func NewGreedy(s grid.Shape) *Greedy {
	return &Greedy{shape: s, co: newCoords(s)}
}

// GreedyShape implements engine.MeshGreedy: NextLink is exactly the
// dimension-order greedy scheme on g's shape, so the engine may resolve
// links inline from its own stride tables. FaultGreedy does not (and
// must not) certify this — its detours depend on the fault plan.
func (g *Greedy) GreedyShape() (grid.Shape, bool) { return g.shape, true }

// NextLink implements engine.Policy.
func (g *Greedy) NextLink(rank, dst, class int) int {
	d := g.shape.Dim
	side := g.shape.Side
	dim := class
	for i := 0; i < d; i++ {
		c, t := g.co.at(rank, dim), g.co.at(dst, dim)
		if c != t {
			dir := 1
			if g.shape.Torus {
				fwd := t - c // c and t lie in [0, side): no modulo needed
				if fwd < 0 {
					fwd += side
				}
				if fwd > side-fwd {
					dir = -1
				}
			} else if t < c {
				dir = -1
			}
			return engine.LinkFor(dim, dir)
		}
		dim++
		if dim == d {
			dim = 0
		}
	}
	return -1
}

// ClassMode selects how routing classes are assigned to a batch of
// packets before a routing phase.
type ClassMode int

const (
	// ClassZero assigns class 0 to every packet: the standard greedy
	// scheme routing a single stream.
	ClassZero ClassMode = iota
	// ClassRandom assigns uniformly random classes, the randomized
	// variant of the extended scheme.
	ClassRandom
	// ClassLocalRank sorts the packets of each block by destination and
	// assigns class = local rank mod d: the deterministic variant used
	// after the sort-and-unshuffle derandomization (Section 2.2: "locally
	// sorting blocks of side length o(n), and defining S_i as the set of
	// packets with a local rank y such that y mod d = i").
	ClassLocalRank
)

// String implements fmt.Stringer.
func (m ClassMode) String() string {
	switch m {
	case ClassZero:
		return "zero"
	case ClassRandom:
		return "random"
	case ClassLocalRank:
		return "local-rank"
	}
	return "unknown"
}
