package engine

import (
	"testing"

	"meshsort/internal/grid"
	"meshsort/internal/stats"
	"meshsort/internal/xmath"
)

// buildTimedPlan creates count packets with random destinations and a
// nondecreasing arrival schedule over [0, window), returning the plan.
// Packets are created in the arena but not injected — timed arrivals
// enter the network when the clock reaches their stamp.
func buildTimedPlan(net *Net, s grid.Shape, count int, window int32, seed uint64) *Arrivals {
	rng := xmath.NewRNG(seed)
	arr := &Arrivals{}
	clock := int32(0)
	for i := 0; i < count; i++ {
		p := net.NewPacket(int64(i), rng.Intn(s.N()))
		p.Dst = rng.Intn(s.N())
		p.Class = i % s.Dim
		if window > 0 {
			clock += int32(rng.Intn(int(window)))
		}
		arr.Add(clock, p)
	}
	return arr
}

// routeTimed runs one timed-injection phase and returns the result plus
// the final packet placement.
func routeTimed(t *testing.T, s grid.Shape, workers, count int, window int32, seed uint64) (RouteResult, map[int]int, *stats.Hist) {
	t.Helper()
	net := New(s)
	pool := NewPool(workers)
	defer pool.Close()
	net.Pool = pool
	arr := buildTimedPlan(net, s, count, window, seed)
	var hist stats.Hist
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: arr, Sojourn: &hist})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if arr.Pending() != 0 {
		t.Fatalf("workers=%d: %d arrivals left unconsumed", workers, arr.Pending())
	}
	return res, net.Snapshot(), &hist
}

// TestTimedInjectionDeliversAll checks that a windowed arrival plan
// routes every packet to its destination and that the phase accounts for
// all of them.
func TestTimedInjectionDeliversAll(t *testing.T) {
	s := grid.New(3, 6)
	net := New(s)
	arr := buildTimedPlan(net, s, 300, 8, 42)
	selfBorn := 0
	for _, id := range arr.IDs {
		p := net.Packet(id)
		if p.Dst == p.Src {
			selfBorn++
		}
	}
	var hist stats.Hist
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: arr, Sojourn: &hist, Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 300-selfBorn {
		t.Fatalf("delivered %d of %d moving packets", res.Delivered, 300-selfBorn)
	}
	if net.TotalPackets() != 300 {
		t.Fatalf("network holds %d packets, injected 300", net.TotalPackets())
	}
	net.ForEachHeld(func(rank int, p *Packet) {
		if p.Dst != rank {
			t.Fatalf("packet %d held at %d, destination %d", p.ID, rank, p.Dst)
		}
	})
	if hist.Count() != int64(res.Delivered) {
		t.Fatalf("sojourn histogram saw %d packets, delivered %d", hist.Count(), res.Delivered)
	}
	if res.Sojourn.Count != hist.Count() || res.Sojourn.Max != hist.Max() {
		t.Fatalf("result summary %+v does not match histogram (n=%d max=%d)", res.Sojourn, hist.Count(), hist.Max())
	}
	if res.Sojourn.P50 < 1 {
		t.Fatalf("p50 sojourn %d, want >= 1 (every move takes a step)", res.Sojourn.P50)
	}
}

// TestTimedInjectionDeterministicAcrossWorkers pins the determinism
// guarantee for mid-run activation: the simulated outcome (steps,
// deliveries, overshoot, queue marks, sojourn percentiles, and the final
// placement of every packet) must be bit-identical at any worker count,
// including the single-worker inline sweep.
func TestTimedInjectionDeterministicAcrossWorkers(t *testing.T) {
	s := grid.New(3, 6)
	base, snapBase, histBase := routeTimed(t, s, 1, 400, 6, 99)
	for _, workers := range []int{2, 3, 7} {
		res, snap, hist := routeTimed(t, s, workers, 400, 6, 99)
		if res.Steps != base.Steps || res.Delivered != base.Delivered ||
			res.Hops != base.Hops || res.MaxDist != base.MaxDist ||
			res.MaxOvershoot != base.MaxOvershoot || res.SumOvershoot != base.SumOvershoot ||
			res.MaxQueue != base.MaxQueue {
			t.Fatalf("workers=%d: result diverged from single-worker run:\n %+v\nvs %+v", workers, res, base)
		}
		if *hist != *histBase {
			t.Fatalf("workers=%d: sojourn histogram state diverged", workers)
		}
		if res.Sojourn != base.Sojourn {
			t.Fatalf("workers=%d: sojourn summary diverged: %+v vs %+v", workers, res.Sojourn, base.Sojourn)
		}
		if len(snap) != len(snapBase) {
			t.Fatalf("workers=%d: %d packets placed, want %d", workers, len(snap), len(snapBase))
		}
		for id, rank := range snapBase {
			if snap[id] != rank {
				t.Fatalf("workers=%d: packet %d at %d, want %d", workers, id, snap[id], rank)
			}
		}
	}
}

// TestTimedInjectionIdleGaps checks the idle fast-forward: a plan whose
// arrivals are separated by long quiet gaps still delivers everything,
// and the skipped idle time counts as simulated steps.
func TestTimedInjectionIdleGaps(t *testing.T) {
	s := grid.New(2, 8)
	net := New(s)
	arr := &Arrivals{}
	// Three lone packets, 500 idle steps apart.
	for i, stamp := range []int32{0, 500, 1000} {
		p := net.NewPacket(int64(i), 0)
		p.Dst = s.N() - 1
		arr.Add(stamp, p)
	}
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: arr, Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 3 {
		t.Fatalf("delivered %d, want 3", res.Delivered)
	}
	if res.Steps < 1000+s.Dist(0, s.N()-1) {
		t.Fatalf("steps %d do not cover the idle gaps plus the last journey", res.Steps)
	}
	// Each packet rode an uncongested network: overshoot 0 for all.
	if res.SumOvershoot != 0 {
		t.Fatalf("overshoot %d on an idle network", res.SumOvershoot)
	}
}

// TestTimedInjectionBornAtDestination checks that arrivals whose source
// equals their destination are filed at rest immediately and do not hang
// the step loop.
func TestTimedInjectionBornAtDestination(t *testing.T) {
	s := grid.New(2, 4)
	net := New(s)
	arr := &Arrivals{}
	for i := 0; i < 4; i++ {
		p := net.NewPacket(int64(i), i)
		p.Dst = i
		arr.Add(int32(i*3), p)
	}
	var hist stats.Hist
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: arr, Sojourn: &hist})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 {
		t.Fatalf("delivered %d, want 0 (nothing moved)", res.Delivered)
	}
	if net.TotalPackets() != 4 {
		t.Fatalf("network holds %d packets, want 4", net.TotalPackets())
	}
	net.ForEachHeld(func(rank int, p *Packet) {
		if p.Dst != rank {
			t.Fatalf("packet %d at %d, want %d", p.ID, rank, p.Dst)
		}
	})
}

// TestTimedInjectionMixesWithBatch checks that held packets injected the
// classic way and a timed plan coexist in one phase.
func TestTimedInjectionMixesWithBatch(t *testing.T) {
	s := grid.New(2, 8)
	net := New(s)
	rng := xmath.NewRNG(3)
	dsts := rng.Perm(s.N())
	batch := make([]*Packet, s.N())
	for i := range batch {
		p := net.NewPacket(int64(i), i)
		p.Dst = dsts[i]
		batch[i] = p
	}
	net.Inject(batch)
	arr := buildTimedPlan(net, s, 100, 4, 7)
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: arr, Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	if net.TotalPackets() != s.N()+100 {
		t.Fatalf("network holds %d packets, want %d", net.TotalPackets(), s.N()+100)
	}
	net.ForEachHeld(func(rank int, p *Packet) {
		if p.Dst != rank {
			t.Fatalf("packet %d held at %d, destination %d", p.ID, rank, p.Dst)
		}
	})
	_ = res
}

// TestArrivalsValidate checks the plan's structural rejection paths.
func TestArrivalsValidate(t *testing.T) {
	s := grid.New(2, 4)
	net := New(s)
	p := net.NewPacket(0, 0)
	p.Dst = 3

	bad := &Arrivals{Clocks: []int32{5, 2}, IDs: []int32{0, 0}}
	if _, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: bad}); err == nil {
		t.Fatal("out-of-order plan accepted")
	}
	mismatch := &Arrivals{Clocks: []int32{0}, IDs: nil}
	if _, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: mismatch}); err == nil {
		t.Fatal("length-mismatched plan accepted")
	}
	// An empty plan is a batch phase.
	empty := &Arrivals{}
	net.Inject([]*Packet{p})
	if _, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: empty}); err != nil {
		t.Fatal(err)
	}
}

// TestSojournBatchPhase checks latency accounting on a plain batch
// phase: every sojourn equals the packet's activation distance plus its
// overshoot, so the histogram total must match hops for a monotone
// policy with no congestion slack beyond overshoot.
func TestSojournBatchPhase(t *testing.T) {
	s := grid.New(3, 4)
	net := New(s)
	rng := xmath.NewRNG(21)
	dsts := rng.Perm(s.N())
	pkts := make([]*Packet, s.N())
	for i := range pkts {
		p := net.NewPacket(int64(i), i)
		p.Dst = dsts[i]
		p.Class = i % s.Dim
		pkts[i] = p
	}
	net.Inject(pkts)
	var hist stats.Hist
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Sojourn: &hist})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Count() != int64(res.Delivered) {
		t.Fatalf("histogram saw %d deliveries, result says %d", hist.Count(), res.Delivered)
	}
	// Sum over the histogram is not recoverable exactly (bucketed), but
	// the max must be exact: longest journey plus its overshoot is
	// bounded by steps.
	if res.Sojourn.Max > int64(res.Steps) {
		t.Fatalf("max sojourn %d exceeds phase steps %d", res.Sojourn.Max, res.Steps)
	}
	if res.Sojourn.Max < int64(res.MaxDist) {
		t.Fatalf("max sojourn %d below max distance %d", res.Sojourn.Max, res.MaxDist)
	}
}

// TestSojournAccumulatesAcrossPhases checks that a caller-owned Hist
// passed to two phases holds both phases' packets.
func TestSojournAccumulatesAcrossPhases(t *testing.T) {
	s := grid.New(2, 6)
	net := New(s)
	var hist stats.Hist
	total := int64(0)
	for phase := 0; phase < 2; phase++ {
		net.Reset(s)
		rng := xmath.NewRNG(uint64(31 + phase))
		dsts := rng.Perm(s.N())
		pkts := make([]*Packet, s.N())
		for i := range pkts {
			p := net.NewPacket(int64(i), i)
			p.Dst = dsts[i]
			pkts[i] = p
		}
		net.Inject(pkts)
		res, err := net.Route(greedyTestPolicy{s}, RouteOpts{Sojourn: &hist})
		if err != nil {
			t.Fatal(err)
		}
		total += int64(res.Delivered)
		if res.Sojourn.Count != total {
			t.Fatalf("phase %d: cumulative summary count %d, want %d", phase, res.Sojourn.Count, total)
		}
	}
	if hist.Count() != total {
		t.Fatalf("histogram count %d, want %d", hist.Count(), total)
	}
}

// TestTimedInjectionRewind checks that Rewind re-arms a consumed plan.
func TestTimedInjectionRewind(t *testing.T) {
	s := grid.New(2, 6)
	net := New(s)
	arr := buildTimedPlan(net, s, 50, 4, 13)
	res1, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: arr})
	if err != nil {
		t.Fatal(err)
	}
	if arr.Pending() != 0 {
		t.Fatalf("plan not consumed: %d pending", arr.Pending())
	}
	// Re-route the same packets: drain held state, rewind, go again.
	// The clock has advanced, so past stamps activate immediately — the
	// phase degenerates to batch but must still deliver everything.
	for r := 0; r < s.N(); r++ {
		net.ClearHeld(r)
	}
	arr.Rewind()
	res2, err := net.Route(greedyTestPolicy{s}, RouteOpts{Arrivals: arr})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Delivered != res1.Delivered {
		t.Fatalf("rewound run delivered %d, first run %d", res2.Delivered, res1.Delivered)
	}
}
