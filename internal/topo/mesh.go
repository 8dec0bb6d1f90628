package topo

import (
	"math/bits"

	"meshsort/internal/grid"
)

// Mesh is the d-dimensional mesh/torus topology of the source paper,
// wrapping a grid.Shape with the precomputed stride tables the hot paths
// need. It is the engine's fast path: the step loop recognizes *Mesh by
// type and keeps its inline coordinate math, so these methods serve the
// generic consumers (policies, fault plans, conformance checks) and the
// contract they are checked against.
//
// Link ids are grid's encoding dim*2 + dirBit (engine.LinkFor): the
// window width is 2d everywhere, with boundary links of a mesh carrying
// no edge. The receiver-side slot of an edge is the sender's own link
// id: on a side-2 torus the two directed edges of a dimension land in
// the two distinct slots of that dimension.
type Mesh struct {
	shape grid.Shape
	n     int
	links int
	diam  int

	divs []int // divs[dim] = side^(d-1-dim): rank stride of one hop along dim
	// Power-of-two strength reduction for (rank / div) % side, mirroring
	// the engine's step loop (see engine.stepState).
	divShift []uint
	sideMask int
	pow2     bool
}

// NewMesh returns the topology of a mesh or torus shape. It panics on a
// degenerate shape (see grid.Shape.Validate) — a hand-built literal with
// side < 2 or dim < 1 would otherwise silently mis-stride every
// coordinate computation downstream.
func NewMesh(s grid.Shape) *Mesh {
	if err := s.Validate(); err != nil {
		panic(err.Error())
	}
	m := &Mesh{
		shape: s,
		n:     s.N(),
		links: 2 * s.Dim,
		diam:  s.Diameter(),
		divs:  make([]int, s.Dim),
	}
	div := 1
	for dim := s.Dim - 1; dim >= 0; dim-- {
		m.divs[dim] = div
		div *= s.Side
	}
	if side := s.Side; side&(side-1) == 0 {
		m.pow2 = true
		m.sideMask = side - 1
		logSide := uint(bits.TrailingZeros(uint(side)))
		m.divShift = make([]uint, s.Dim)
		for dim := range m.divShift {
			m.divShift[dim] = logSide * uint(s.Dim-1-dim)
		}
	}
	return m
}

// FromShape is the canonical grid.Shape -> Topology adapter used by
// every layer that still speaks shapes (engine.New, pipeline.Config,
// the service spec).
func FromShape(s grid.Shape) *Mesh { return NewMesh(s) }

// Shape returns the underlying grid shape.
func (m *Mesh) Shape() grid.Shape { return m.shape }

// N implements Topology.
func (m *Mesh) N() int { return m.n }

// Links implements Topology: 2d link ids per processor.
func (m *Mesh) Links() int { return m.links }

// Degree implements Topology.
func (m *Mesh) Degree(rank int) int { return m.shape.Degree(rank) }

// coord extracts the rank's coordinate along dim without division when
// the side is a power of two.
func (m *Mesh) coord(rank, dim int) int {
	if m.pow2 {
		return (rank >> m.divShift[dim]) & m.sideMask
	}
	return (rank / m.divs[dim]) % m.shape.Side
}

// Neighbor implements Topology. The slot is the sender's link id.
func (m *Mesh) Neighbor(rank, link int) (recv, slot int, ok bool) {
	dim := link >> 1
	div := m.divs[dim]
	side := m.shape.Side
	c := m.coord(rank, dim)
	if link&1 == 1 { // +1 direction
		switch {
		case c < side-1:
			return rank + div, link, true
		case m.shape.Torus:
			return rank - (side-1)*div, link, true
		}
		return 0, 0, false
	}
	switch {
	case c > 0:
		return rank - div, link, true
	case m.shape.Torus:
		return rank + (side-1)*div, link, true
	}
	return 0, 0, false
}

// Reverse implements Topology: the opposite direction of the same
// dimension. On a side-2 torus this pairs the +1 edge of one rank with
// the -1 edge of the other, keeping the two physical edges of the
// doubled ring distinct (matching the engine's fault-plan enumeration).
func (m *Mesh) Reverse(rank, link int) (recv, backLink int, ok bool) {
	recv, _, ok = m.Neighbor(rank, link)
	if !ok {
		return 0, 0, false
	}
	return recv, link ^ 1, true
}

// Dist implements Topology.
func (m *Mesh) Dist(a, b int) int { return m.shape.Dist(a, b) }

// Diameter implements Topology.
func (m *Mesh) Diameter() int { return m.diam }

// String implements Topology.
func (m *Mesh) String() string { return m.shape.String() }
