package engine

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"meshsort/internal/grid"
	"meshsort/internal/xmath"
)

func TestFaultPlanLinkSemantics(t *testing.T) {
	s := grid.New(2, 4)
	f := NewFaultPlan(s)
	r := s.Rank([]int{1, 1})
	f.FailLink(r, LinkFor(0, 1))
	nb := s.Rank([]int{2, 1})
	if !f.LinkDown(r, LinkFor(0, 1), 0) || !f.PermDown(r, LinkFor(0, 1)) {
		t.Error("failed link not down")
	}
	if !f.LinkDown(nb, LinkFor(0, -1), 0) {
		t.Error("reverse direction of the failed edge not down")
	}
	if f.LinkDown(r, LinkFor(1, 1), 0) {
		t.Error("unrelated link down")
	}
	if f.DownEdges() != 1 {
		t.Errorf("DownEdges = %d, want 1 (both directions are one edge)", f.DownEdges())
	}
	f.FailLink(nb, LinkFor(0, -1)) // same physical edge again
	if f.DownEdges() != 1 {
		t.Errorf("DownEdges = %d after re-failing, want 1", f.DownEdges())
	}
	var nilPlan *FaultPlan
	if nilPlan.LinkDown(0, 0, 0) || nilPlan.PermDown(0, 0) || nilPlan.DownEdges() != 0 {
		t.Error("nil plan not a no-fault plan")
	}
}

func TestFaultPlanOutageWindow(t *testing.T) {
	s := grid.New(1, 4)
	f := NewFaultPlan(s)
	f.Outage(1, LinkFor(0, 1), 3, 6)
	for clock, want := range map[int]bool{2: false, 3: true, 5: true, 6: false} {
		if got := f.LinkDown(1, LinkFor(0, 1), clock); got != want {
			t.Errorf("LinkDown at clock %d = %v, want %v", clock, got, want)
		}
		if got := f.LinkDown(2, LinkFor(0, -1), clock); got != want {
			t.Errorf("reverse LinkDown at clock %d = %v, want %v", clock, got, want)
		}
	}
	if f.PermDown(1, LinkFor(0, 1)) {
		t.Error("transient outage reported as permanent")
	}
}

func TestFailProcessorCutsAllLinks(t *testing.T) {
	s := grid.New(2, 4)
	f := NewFaultPlan(s)
	r := s.Rank([]int{1, 2})
	f.FailProcessor(r)
	for dim := 0; dim < s.Dim; dim++ {
		for _, dir := range [2]int{-1, 1} {
			if _, ok := s.Step(r, dim, dir); !ok {
				continue
			}
			if !f.LinkDown(r, LinkFor(dim, dir), 0) {
				t.Errorf("link (%d,%d) of dead processor still up", dim, dir)
			}
		}
	}
	if got := f.DeadProcessors(); len(got) != 1 || got[0] != r {
		t.Errorf("DeadProcessors = %v, want [%d]", got, r)
	}
}

func TestFaultPlanBoundaryPanics(t *testing.T) {
	s := grid.New(1, 4)
	f := NewFaultPlan(s)
	defer func() {
		if recover() == nil {
			t.Error("FailLink off the boundary did not panic")
		}
	}()
	f.FailLink(0, LinkFor(0, -1))
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	for _, s := range []grid.Shape{grid.New(3, 6), grid.NewTorus(3, 6)} {
		a := RandomFaultPlan(s, 0.05, 42)
		b := RandomFaultPlan(s, 0.05, 42)
		if a.DownEdges() == 0 {
			t.Errorf("%v: 5%% fault rate produced no failures", s)
		}
		if !reflect.DeepEqual(a.perm, b.perm) {
			t.Errorf("%v: identical seeds produced different plans", s)
		}
		c := RandomFaultPlan(s, 0.05, 43)
		if reflect.DeepEqual(a.perm, c.perm) {
			t.Errorf("%v: different seeds produced identical plans", s)
		}
	}
	if RandomFaultPlan(grid.New(2, 4), 0, 1).DownEdges() != 0 {
		t.Error("zero rate failed edges")
	}
}

// TestTransientOutageDelaysDelivery: a packet waiting out an outage
// window costs exactly the window, with no stranding.
func TestTransientOutageDelaysDelivery(t *testing.T) {
	s := grid.New(1, 8)
	net := New(s)
	f := NewFaultPlan(s)
	f.Outage(0, LinkFor(0, 1), 1, 4) // clocks 1,2,3 down
	p := net.NewPacket(0, 0)
	p.Dst = 4
	net.Inject([]*Packet{p})
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 7 { // 3 blocked steps + distance 4
		t.Errorf("steps = %d, want 7 (3 waiting + 4 moving)", res.Steps)
	}
	if len(res.Stranded) != 0 || res.Delivered != 1 {
		t.Errorf("stranded=%d delivered=%d, want 0/1", len(res.Stranded), res.Delivered)
	}
	if len(net.Held(4)) != 1 {
		t.Error("packet not delivered")
	}
}

// TestStrandedOnCutDestination is the graceful-degradation acceptance
// case: a destination with every incident edge down strands the packet
// within the patience budget — with full diagnostics — instead of
// spinning to MaxSteps.
func TestStrandedOnCutDestination(t *testing.T) {
	s := grid.New(2, 4)
	net := New(s)
	dst := s.Rank([]int{1, 1})
	f := NewFaultPlan(s)
	f.FailProcessor(dst)
	p := net.NewPacket(7, 0)
	p.Dst = dst
	net.Inject([]*Packet{p})
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Faults: f})
	if err != nil {
		t.Fatalf("cut destination must degrade gracefully, got error %v", err)
	}
	patience := 2*s.Diameter() + 64 // the default budget under faults
	// The packet travels toward the cut destination first, then waits out
	// its patience: at most diameter + patience + 1 steps.
	if res.Steps > patience+s.Diameter()+1 {
		t.Errorf("stranding took %d steps, want within the patience budget %d", res.Steps, patience)
	}
	if len(res.Stranded) != 1 {
		t.Fatalf("Stranded has %d entries, want 1", len(res.Stranded))
	}
	d := res.Stranded[0]
	if d.ID != p.ID || d.Key != 7 || d.Dst != dst || d.Dist == 0 || d.Waited <= patience {
		t.Errorf("bad diagnostics: %v", d)
	}
	if len(d.Wants) == 0 || !reflect.DeepEqual(d.Wants, d.Blocked) {
		t.Errorf("boxed-in packet must want only blocked links: wants %v, blocked %v", d.Wants, d.Blocked)
	}
	if net.TotalPackets() != 1 {
		t.Error("stranded packet not conserved")
	}
	if len(net.Held(d.Rank)) != 1 {
		t.Errorf("stranded packet not held at its stranding rank %d", d.Rank)
	}

	// A later phase with the fault repaired retries the stranded packet.
	res2, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Delivered != 1 || len(net.Held(dst)) != 1 {
		t.Error("stranded packet not retried after the fault cleared")
	}
}

// TestWatchdogAbortsOnLivelock: with stranding disabled, the no-progress
// watchdog converts a blocked phase into a diagnosed abort.
func TestWatchdogAbortsOnLivelock(t *testing.T) {
	s := grid.New(2, 4)
	net := New(s)
	dst := s.Rank([]int{1, 1})
	f := NewFaultPlan(s)
	f.FailProcessor(dst)
	p := net.NewPacket(0, 0)
	p.Dst = dst
	net.Inject([]*Packet{p})
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Faults: f, Patience: -1, NoProgress: 12})
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("got %v, want *DegradedError", err)
	}
	if !strings.Contains(deg.Reason, "no progress") || deg.Undelivered != 1 {
		t.Errorf("bad degraded error: %+v", deg)
	}
	if res.Steps >= 64*s.Diameter()+1024 {
		t.Error("watchdog did not beat the MaxSteps cliff")
	}
	if len(res.Stuck) != 1 || res.Stuck[0].ID != p.ID || len(res.Stuck[0].Blocked) == 0 {
		t.Errorf("Stuck snapshot = %v, want the blocked packet", res.Stuck)
	}
	if net.TotalPackets() != 1 {
		t.Error("packet not conserved across the watchdog abort")
	}
}

// TestMaxStepsReturnsPartialResult: the MaxSteps abort is a
// *DegradedError carrying the partial result and stuck snapshot.
func TestMaxStepsReturnsPartialResult(t *testing.T) {
	s := grid.New(2, 8)
	net := New(s)
	p := net.NewPacket(0, 0)
	p.Dst = s.N() - 1
	net.Inject([]*Packet{p})
	lazy := policyFunc(func(rank, dst, class int) int { return -1 })
	res, err := net.Route(lazy, RouteOpts{MaxSteps: 5, NoProgress: -1})
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("got %v, want *DegradedError", err)
	}
	if !strings.Contains(deg.Reason, "exceeded") || deg.Steps != 5 {
		t.Errorf("bad degraded error: %+v", deg)
	}
	if res.Steps != 5 {
		t.Errorf("partial result Steps = %d, want 5", res.Steps)
	}
	if len(res.Stuck) != 1 || res.Stuck[0].ID != p.ID {
		t.Errorf("Stuck snapshot = %v, want the lazy packet", res.Stuck)
	}
}

// TestTwoSideTorusFaultedDoubleEdge: on a side-2 torus the two directed
// links of a dimension are distinct physical edges; failing one must
// leave the other usable.
func TestTwoSideTorusFaultedDoubleEdge(t *testing.T) {
	s := grid.NewTorus(1, 2)
	f := NewFaultPlan(s)
	f.FailLink(0, LinkFor(0, 1))
	if !f.LinkDown(0, LinkFor(0, 1), 0) || !f.LinkDown(1, LinkFor(0, -1), 0) {
		t.Fatal("failed double edge not down in both directions")
	}
	if f.LinkDown(0, LinkFor(0, -1), 0) || f.LinkDown(1, LinkFor(0, 1), 0) {
		t.Fatal("sibling double edge went down too")
	}
	net := New(s)
	a := net.NewPacket(1, 0)
	a.Dst = 1
	b := net.NewPacket(2, 0)
	b.Dst = 1
	b.Class = 1 // policies see (rank, dst, class); class tells the packets apart
	net.Inject([]*Packet{a, b})
	split := policyFunc(func(rank, dst, class int) int {
		if class == 0 {
			return LinkFor(0, 1) // the failed edge
		}
		return LinkFor(0, -1) // the live sibling
	})
	res, err := net.Route(split, RouteOpts{Faults: f, Patience: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || len(res.Stranded) != 1 || res.Stranded[0].ID != a.ID {
		t.Errorf("delivered=%d stranded=%v, want b delivered and a stranded",
			res.Delivered, res.Stranded)
	}
	if len(net.Held(1)) != 1 || net.Packet(net.Held(1)[0]) != b {
		t.Error("b not delivered over the live sibling edge")
	}
}

// TestFaultDeterminismAcrossWorkers: under a seeded fault plan the full
// RouteResult — including the Stranded list and its order — and the
// final placement must be identical for every worker count, on meshes
// and tori. A 2-relation's held lists are compared sorted, since their
// order is fixed only for a given worker count. Run under -race to also
// exercise the memory model.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	for _, s := range []grid.Shape{grid.New(3, 6), grid.NewTorus(3, 6)} {
		f := RandomFaultPlan(s, 0.05, 7)
		for _, k := range []int{1, 2} {
			run := func(workers int) (RouteResult, string) {
				net := New(s)
				net.Pool = testPool(t, workers)
				rng := xmath.NewRNG(99)
				var pkts []*Packet
				for j := 0; j < k; j++ {
					dsts := rng.Perm(s.N())
					for i := 0; i < s.N(); i++ {
						p := net.NewPacket(int64(len(pkts)), i)
						p.Dst = dsts[i]
						p.Class = (i + j) % s.Dim
						pkts = append(pkts, p)
					}
				}
				net.Inject(pkts)
				res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Faults: f, Paranoid: true})
				if err != nil {
					t.Fatal(err)
				}
				return normalizeResult(res), heldFingerprint(net, k > 1)
			}
			baseRes, baseFP := run(workerCounts[0])
			if len(baseRes.Stranded) == 0 {
				t.Errorf("%v k=%d: fault plan stranded nothing; the determinism test needs strands", s, k)
			}
			for _, w := range workerCounts[1:] {
				res, fp := run(w)
				if !reflect.DeepEqual(res, baseRes) {
					t.Errorf("%v k=%d: RouteResult differs between %d and %d workers:\n%+v\n%+v",
						s, k, workerCounts[0], w, baseRes, res)
				}
				if fp != baseFP {
					t.Errorf("%v k=%d: final placement differs between %d and %d workers", s, k, workerCounts[0], w)
				}
			}
		}
	}
}

// TestParanoidCheckerCleanRun: the invariant checker passes on a healthy
// permutation route (and on a faulted one, above).
func TestParanoidCheckerCleanRun(t *testing.T) {
	s := grid.New(3, 6)
	net := New(s)
	rng := xmath.NewRNG(3)
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
