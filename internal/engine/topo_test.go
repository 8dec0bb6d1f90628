package engine

import (
	"fmt"
	"strings"
	"testing"

	"meshsort/internal/grid"
	"meshsort/internal/topo"
	"meshsort/internal/xmath"
)

// cliqueTestPolicy routes directly: the clique has an edge to every
// destination (the production policy lives in internal/route; a tiny
// local copy avoids an import cycle in tests).
type cliqueTestPolicy struct{ c *topo.Clique }

func (p cliqueTestPolicy) NextLink(rank, dst, class int) int {
	if rank == dst {
		return -1
	}
	return p.c.LinkTo(rank, dst)
}

// TestCliqueRoutesPermutationInOneStep pins the sharpest congested-clique
// fact the engine can observe: a permutation is a 1-relation, every
// sender owns a private edge to its destination, and greedy direct
// routing finishes in exactly one step.
func TestCliqueRoutesPermutationInOneStep(t *testing.T) {
	c := topo.NewClique(64)
	net := NewNet(c)
	rng := xmath.NewRNG(7)
	dsts := rng.Perm(c.N())
	pkts := make([]*Packet, c.N())
	for i := range pkts {
		pkts[i] = net.NewPacket(int64(i), i)
		pkts[i].Dst = dsts[i]
	}
	net.Inject(pkts)
	res, err := net.Route(cliqueTestPolicy{c}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Errorf("permutation took %d steps on the clique, want 1", res.Steps)
	}
	for r := 0; r < c.N(); r++ {
		if held := net.Held(r); len(held) != 1 || net.Packet(held[0]).Dst != r {
			t.Fatalf("rank %d holds %d packets", r, len(held))
		}
	}
}

// TestCliqueKRelationBound checks the k-relation bound the clique
// experiment reports against: k concatenated permutations load every
// directed edge with at most k packets, and greedy direct routing
// drains one packet per edge per step, so delivery takes at most k
// steps (Lenzen's O(1)-round structure needs none of this slack).
func TestCliqueKRelationBound(t *testing.T) {
	c := topo.NewClique(48)
	const k = 6
	net := NewNet(c)
	rng := xmath.NewRNG(21)
	pkts := make([]*Packet, 0, k*c.N())
	fixed := 0
	for j := 0; j < k; j++ {
		dsts := rng.Perm(c.N())
		for i, d := range dsts {
			if i == d {
				fixed++
			}
			p := net.NewPacket(int64(len(pkts)), i)
			p.Dst = d
			pkts = append(pkts, p)
		}
	}
	net.Inject(pkts)
	res, err := net.Route(cliqueTestPolicy{c}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps > k {
		t.Errorf("%d-relation took %d steps on the clique, bound is %d", k, res.Steps, k)
	}
	if want := k*c.N() - fixed; res.Delivered != want {
		t.Errorf("delivered %d of %d moving packets", res.Delivered, want)
	}
}

// TestCliqueDeterministicAcrossWorkers extends the engine's determinism
// guarantee to a non-mesh topology: final placement and step count are
// bit-identical for every worker count and shard granularity.
func TestCliqueDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers, shardShift int) ([]int, int) {
		c := topo.NewClique(96)
		net := NewNet(c)
		net.Pool = testPool(t, workers)
		net.ShardShift = shardShift
		rng := xmath.NewRNG(55)
		pkts := make([]*Packet, 0, 3*c.N())
		for j := 0; j < 3; j++ {
			dsts := rng.Perm(c.N())
			for i, d := range dsts {
				p := net.NewPacket(int64(len(pkts)), i)
				p.Dst = d
				pkts = append(pkts, p)
			}
		}
		net.Inject(pkts)
		res, err := net.Route(cliqueTestPolicy{c}, RouteOpts{Paranoid: true})
		if err != nil {
			t.Fatal(err)
		}
		fp := make([]int, 0, len(pkts))
		for r := 0; r < c.N(); r++ {
			for _, id := range net.Held(r) {
				fp = append(fp, net.Packet(id).ID)
			}
		}
		return fp, res.Steps
	}
	fp1, steps1 := run(1, 0)
	for _, cfg := range [][2]int{{4, 0}, {8, 0}, {4, 4}, {8, 7}} {
		fp, steps := run(cfg[0], cfg[1])
		if steps != steps1 {
			t.Fatalf("steps differ: %d workers shift %d took %d, serial took %d", cfg[0], cfg[1], steps, steps1)
		}
		for i := range fp1 {
			if fp[i] != fp1[i] {
				t.Fatalf("placement differs with %d workers shift %d", cfg[0], cfg[1])
			}
		}
	}
}

// TestCliqueFaultsStrandDeadTraffic checks graceful degradation on the
// clique: packets destined for a failed processor exhaust their patience
// and strand with diagnostics, while the rest of the permutation
// delivers around the hole.
func TestCliqueFaultsStrandDeadTraffic(t *testing.T) {
	c := topo.NewClique(16)
	net := NewNet(c)
	plan := NewFaultPlanTopo(c)
	const dead = 5
	plan.FailProcessor(dead)
	if want := c.N() - 1; plan.DownEdges() != want {
		t.Fatalf("FailProcessor downed %d edges, want %d", plan.DownEdges(), want)
	}
	rng := xmath.NewRNG(3)
	dsts := rng.Perm(c.N())
	pkts := make([]*Packet, 0, c.N())
	for i, d := range dsts {
		if i == dead || i == d {
			continue // the dead rank sends nothing; fixed points never move
		}
		p := net.NewPacket(int64(i), i)
		p.Dst = d
		pkts = append(pkts, p)
	}
	net.Inject(pkts)
	res, err := net.Route(cliqueTestPolicy{c}, RouteOpts{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Stranded {
		if d.Dst != dead {
			t.Errorf("packet %d stranded en route to live rank %d", d.ID, d.Dst)
		}
		if len(d.Wants) != 1 || len(d.Blocked) != 1 {
			t.Errorf("stranded packet %d wants %v blocked %v, want the single direct link", d.ID, d.Wants, d.Blocked)
		}
	}
	wantStranded := 0
	for i, d := range dsts {
		if i != dead && i != d && d == dead {
			wantStranded++
		}
	}
	if len(res.Stranded) != wantStranded {
		t.Errorf("%d packets stranded, want %d (the dead rank's inbound)", len(res.Stranded), wantStranded)
	}
	if res.Delivered != len(pkts)-wantStranded {
		t.Errorf("delivered %d, want %d", res.Delivered, len(pkts)-wantStranded)
	}
}

// TestRandomFaultPlanTopo pins the generic edge enumeration: rate 1
// fails every physical edge exactly once, the same seed reproduces the
// same plan, and the clique plan names its topology.
func TestRandomFaultPlanTopo(t *testing.T) {
	cases := []struct {
		tp    topo.Topology
		edges int
	}{
		{topo.NewClique(12), 12 * 11 / 2},
		{topo.NewMesh(grid.New(2, 4)), 2 * 4 * 3},
		{topo.NewMesh(grid.NewTorus(2, 4)), 2 * 16},
		{topo.NewMesh(grid.NewTorus(1, 2)), 2}, // doubled edge of the 2-ring
	}
	for _, c := range cases {
		full := RandomFaultPlanTopo(c.tp, 1, 1)
		if full.DownEdges() != c.edges {
			t.Errorf("%v: rate-1 plan downed %d edges, want %d", c.tp, full.DownEdges(), c.edges)
		}
		a := RandomFaultPlanTopo(c.tp, 0.3, 42)
		b := RandomFaultPlanTopo(c.tp, 0.3, 42)
		if a.DownEdges() != b.DownEdges() || a.String() != b.String() {
			t.Errorf("%v: same seed produced different plans", c.tp)
		}
		if none := RandomFaultPlanTopo(c.tp, 0, 9); none.DownEdges() != 0 {
			t.Errorf("%v: rate-0 plan downed edges", c.tp)
		}
	}
	if s := RandomFaultPlanTopo(topo.NewClique(12), 1, 1).String(); !strings.Contains(s, "clique(n=12)") {
		t.Errorf("plan String %q does not name the topology", s)
	}
}

// TestCliqueWarmRouteDoesNotAllocate extends the zero-allocation guard
// to the generic (non-mesh) data plane: the interface-driven kernel,
// with its wide link contest, must not box, closure, or reallocate
// anything once warm, at 1 worker or 2.
func TestCliqueWarmRouteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { cliqueWarmAllocs(t, workers) })
	}
}

func cliqueWarmAllocs(t *testing.T, workers int) {
	c := topo.NewClique(128)
	net := NewNet(c)
	pool := NewPool(workers)
	defer pool.Close()
	net.Pool = pool

	rng := xmath.NewRNG(13)
	dsts := rng.Perm(c.N())
	pkts := make([]*Packet, c.N())
	var pol Policy = cliqueTestPolicy{c}
	run := func() {
		net.ResetTopo(c)
		for i := range pkts {
			p := net.NewPacket(int64(i), i)
			p.Dst = dsts[i]
			pkts[i] = p
		}
		net.Inject(pkts)
		if _, err := net.Route(pol, RouteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("warm clique route allocated %.1f times per run, want 0", avg)
	}
}

// TestCheckTopologyCeilings pins the capacity contract of the compact
// data plane: link ids must fit the pktRef's int16, which caps the
// clique at 32768 processors.
func TestCheckTopologyCeilings(t *testing.T) {
	if err := CheckTopology(topo.NewClique(32768)); err != nil {
		t.Errorf("clique(32768) rejected: %v", err)
	}
	if err := CheckTopology(topo.NewClique(32770)); err == nil {
		t.Error("clique(32770) accepted; its link ids overflow int16")
	}
	if err := CheckTopology(topo.NewMesh(grid.New(3, 8))); err != nil {
		t.Errorf("3d-mesh(n=8) rejected: %v", err)
	}
}

// TestDegenerateShapeRejected pins the validation satellite at the
// engine boundary: hand-built degenerate shapes are refused with an
// error from CheckCapacity and a panic from New, never a silent
// mis-stride.
func TestDegenerateShapeRejected(t *testing.T) {
	for _, s := range []grid.Shape{{Dim: 0, Side: 8}, {Dim: 2, Side: 1}, {Dim: -1, Side: 0}} {
		if err := CheckCapacity(s); err == nil {
			t.Errorf("CheckCapacity(%+v) accepted a degenerate shape", s)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", s)
				}
			}()
			New(s)
		}()
	}
}

// TestResetAcrossTopologies checks that one Net can be re-aimed from a
// mesh to a clique and back: geometry changes rebuild the slabs,
// same-geometry resets keep them, and routing works after each switch.
func TestResetAcrossTopologies(t *testing.T) {
	s := grid.New(2, 8)
	net := New(s)
	routeMesh := func() {
		rng := xmath.NewRNG(31)
		dsts := rng.Perm(s.N())
		pkts := make([]*Packet, s.N())
		for i := range pkts {
			pkts[i] = net.NewPacket(int64(i), i)
			pkts[i].Dst = dsts[i]
		}
		net.Inject(pkts)
		if _, err := net.Route(greedyTestPolicy{s}, RouteOpts{Paranoid: true}); err != nil {
			t.Fatal(err)
		}
	}
	routeMesh()
	c := topo.NewClique(64)
	net.ResetTopo(c)
	if net.N() != 64 || net.Links() != 63 {
		t.Fatalf("after ResetTopo: N=%d Links=%d", net.N(), net.Links())
	}
	rng := xmath.NewRNG(32)
	dsts := rng.Perm(c.N())
	pkts := make([]*Packet, c.N())
	for i := range pkts {
		pkts[i] = net.NewPacket(int64(i), i)
		pkts[i].Dst = dsts[i]
	}
	net.Inject(pkts)
	if _, err := net.Route(cliqueTestPolicy{c}, RouteOpts{Paranoid: true}); err != nil {
		t.Fatal(err)
	}
	net.Reset(s)
	routeMesh()
}
