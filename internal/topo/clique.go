package topo

import "fmt"

// Clique is the complete graph on n processors: every pair is joined by
// a physical edge, the diameter is 1, and a k-relation routes greedily
// in at most k steps (each directed edge carries at most k packets and
// delivers one per step) — the congested-clique model in which Lenzen's
// routing and sorting results hold in O(1) rounds.
//
// Link identity: rank r numbers its n-1 neighbors in rank order with
// itself skipped, so link l of rank r reaches
//
//	l   when l <  r
//	l+1 when l >= r
//
// The slot at the receiver t is the receiver's own link id for the
// sender (r with t skipped), which makes Reverse and the slot mapping
// the same function: the directed edge r->t delivers into exactly the
// slot whose back-link returns to r, so (recv, slot) is unique per edge.
type Clique struct {
	n int
}

// NewClique returns the complete graph on n processors. It panics for
// n < 2 — a clique with no edges cannot route — mirroring grid.New.
func NewClique(n int) *Clique {
	if n < 2 {
		panic(fmt.Sprintf("topo: clique size %d < 2", n))
	}
	return &Clique{n: n}
}

// N implements Topology.
func (c *Clique) N() int { return c.n }

// Links implements Topology: n-1 link ids, all carrying edges.
func (c *Clique) Links() int { return c.n - 1 }

// Degree implements Topology.
func (c *Clique) Degree(rank int) int { return c.n - 1 }

// LinkTo returns the link id of rank's edge to dst (the direct-routing
// policy's whole decision). It panics if rank == dst.
func (c *Clique) LinkTo(rank, dst int) int {
	if rank == dst {
		panic(fmt.Sprintf("topo: clique has no self-edge at rank %d", rank))
	}
	if dst < rank {
		return dst
	}
	return dst - 1
}

// Neighbor implements Topology.
func (c *Clique) Neighbor(rank, link int) (recv, slot int, ok bool) {
	if link < 0 || link >= c.n-1 {
		return 0, 0, false
	}
	recv = link
	if link >= rank {
		recv = link + 1
	}
	return recv, c.LinkTo(recv, rank), true
}

// Reverse implements Topology. For the clique the back-link equals the
// edge's slot by construction.
func (c *Clique) Reverse(rank, link int) (recv, backLink int, ok bool) {
	return c.Neighbor(rank, link)
}

// Dist implements Topology: 0 or 1.
func (c *Clique) Dist(a, b int) int {
	if a == b {
		return 0
	}
	return 1
}

// Diameter implements Topology.
func (c *Clique) Diameter() int { return 1 }

// String implements Topology.
func (c *Clique) String() string { return fmt.Sprintf("clique(n=%d)", c.n) }
