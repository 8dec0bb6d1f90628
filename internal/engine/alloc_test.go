package engine

import (
	"fmt"
	"testing"

	"meshsort/internal/grid"
	"meshsort/internal/stats"
	"meshsort/internal/xmath"
)

// TestWarmRouteDoesNotAllocate is the allocation-regression guard for the
// tentpole claim of the arena data plane: on a warm network (arena
// chunks, queue capacities, and step scratch all learned by a first run)
// a full inject-and-route cycle performs zero heap allocations. A future
// change that reintroduces per-step allocation — a closure in the step
// loop, a fresh scratch slice per phase, a pointer queue — fails here
// immediately. Runs at 1 worker (the inline sweep) and at 2 (split
// ranges with outboxes).
func TestWarmRouteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { warmRouteAllocs(t, workers) })
	}
}

func warmRouteAllocs(t *testing.T, workers int) {
	s := grid.New(3, 8)
	net := New(s)
	pool := NewPool(workers)
	defer pool.Close()
	net.Pool = pool

	rng := xmath.NewRNG(5)
	dsts := rng.Perm(s.N())
	pkts := make([]*Packet, s.N())
	var pol Policy = greedyTestPolicy{s} // boxed once; boxing inside run would count as an alloc
	run := func() {
		net.Reset(s)
		for i := range pkts {
			p := net.NewPacket(int64(i), i)
			p.Dst = dsts[i]
			p.Class = i % s.Dim
			pkts[i] = p
		}
		net.Inject(pkts)
		if _, err := net.Route(pol, RouteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the arena, the queues, and the step scratch
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("warm route allocated %.1f times per run, want 0", avg)
	}
}

// TestWarmRouteDoesNotAllocateLargeRung extends the zero-allocation
// guard to a benchmark-ladder rung (d=3, n=32: 32768 processors), where
// the arena spans multiple chunks and the slab growth, shard tracking,
// and queue reuse all operate at scale. Skipped under -short: the warm-up
// plus verification runs route ~100k packet-hops each.
func TestWarmRouteDoesNotAllocateLargeRung(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	if testing.Short() {
		t.Skip("ladder-rung alloc guard skipped in -short mode")
	}
	s := grid.New(3, 32)
	net := New(s)
	pool := NewPool(2)
	defer pool.Close()
	net.Pool = pool

	rng := xmath.NewRNG(17)
	dsts := rng.Perm(s.N())
	pkts := make([]*Packet, s.N())
	var pol Policy = greedyTestPolicy{s}
	run := func() {
		net.Reset(s)
		for i := range pkts {
			p := net.NewPacket(int64(i), i)
			p.Dst = dsts[i]
			p.Class = i % s.Dim
			pkts[i] = p
		}
		net.Inject(pkts)
		if _, err := net.Route(pol, RouteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(2, run); avg != 0 {
		t.Fatalf("warm ladder-rung route allocated %.1f times per run, want 0", avg)
	}
}

// TestWarmTimedRouteDoesNotAllocate extends the zero-allocation guard to
// the traffic-driven configuration: a timed arrival plan (packets born
// mid-run) with sojourn latency accounting enabled. The plan, the
// histogram accumulator, and the per-worker histograms are all reused
// across runs, so a warm timed phase must allocate exactly as much as a
// warm batch phase: nothing. Runs at 1 worker (the inline sweep) and at
// 2 (split ranges with outboxes).
func TestWarmTimedRouteDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			warmTimedRouteAllocs(t, workers)
		})
	}
}

func warmTimedRouteAllocs(t *testing.T, workers int) {
	s := grid.New(3, 8)
	net := New(s)
	pool := NewPool(workers)
	defer pool.Close()
	net.Pool = pool

	rng := xmath.NewRNG(23)
	srcs := make([]int, s.N())
	dsts := make([]int, s.N())
	clocks := make([]int32, s.N())
	clock := int32(0)
	for i := range srcs {
		srcs[i] = rng.Intn(s.N())
		dsts[i] = rng.Intn(s.N())
		clock += int32(rng.Intn(3))
		clocks[i] = clock
	}
	arr := &Arrivals{Clocks: make([]int32, 0, s.N()), IDs: make([]int32, 0, s.N())}
	var hist stats.Hist
	var pol Policy = greedyTestPolicy{s}
	run := func() {
		net.Reset(s)
		arr.Clocks = arr.Clocks[:0]
		arr.IDs = arr.IDs[:0]
		for i := range srcs {
			p := net.NewPacket(int64(i), srcs[i])
			p.Dst = dsts[i]
			p.Class = i % s.Dim
			arr.Add(clocks[i], p)
		}
		arr.Rewind()
		hist.Reset()
		if _, err := net.Route(pol, RouteOpts{Arrivals: arr, Sojourn: &hist}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the arena, the queues, the step scratch, and the histograms
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("warm timed route allocated %.1f times per run, want 0", avg)
	}
}

// TestWarmRouteDoesNotAllocateSingleWorker covers the single-worker
// sweep (no pool barrier) with the same guard on a 64-processor torus,
// whose shards are smaller than a bitmap word, and a 512-processor mesh.
func TestWarmRouteDoesNotAllocateSingleWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	for _, s := range []grid.Shape{grid.NewTorus(2, 8), grid.New(3, 8)} {
		t.Run(s.String(), func(t *testing.T) { warmSingleWorkerAllocs(t, s) })
	}
}

func warmSingleWorkerAllocs(t *testing.T, s grid.Shape) {
	net := New(s)
	pool := NewPool(1)
	defer pool.Close()
	net.Pool = pool

	rng := xmath.NewRNG(9)
	dsts := rng.Perm(s.N())
	pkts := make([]*Packet, s.N())
	var pol Policy = greedyTestPolicy{s}
	run := func() {
		net.Reset(s)
		for i := range pkts {
			p := net.NewPacket(int64(i), i)
			p.Dst = dsts[i]
			p.Class = i % s.Dim
			pkts[i] = p
		}
		net.Inject(pkts)
		if _, err := net.Route(pol, RouteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("warm single-worker route allocated %.1f times per run, want 0", avg)
	}
}
