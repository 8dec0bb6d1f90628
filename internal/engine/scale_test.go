package engine

import (
	"math"
	"strings"
	"testing"
	"time"

	"meshsort/internal/grid"
)

// The scale regression tests: failure modes that only exist near the
// engine's capacity limits, pinned at the boundary without allocating
// boundary-sized networks (every check under test fires before any
// N-proportional allocation).

// TestCheckCapacityBoundary pins the int32 arena limit: shapes whose
// processor count fits int32 but whose out-slot slab (N*2d) does not
// must be rejected, as must shapes whose N alone overflows.
func TestCheckCapacityBoundary(t *testing.T) {
	ok := []grid.Shape{
		grid.New(3, 128),             // top benchmark-ladder rung, N ≈ 2.1M
		grid.New(2, 1448),            // the 2D ladder cousin of n=128
		grid.New(1, math.MaxInt32/2), // largest legal 1D mesh: slots = 2N = MaxInt32-1
	}
	for _, s := range ok {
		if err := CheckCapacity(s); err != nil {
			t.Errorf("%v: unexpected capacity rejection: %v", s, err)
		}
	}
	bad := []grid.Shape{
		grid.New(1, 1<<30), // slots 2^31 > MaxInt32
		grid.New(1, math.MaxInt32/2+1),
		grid.New(3, 1290),  // N ≈ 2.147e9 fits int32, 6N does not
		grid.New(2, 1<<16), // N = 2^32 > MaxInt32
	}
	for _, s := range bad {
		if err := CheckCapacity(s); err == nil {
			t.Errorf("%v: capacity check accepted an overflowing shape (N=%d, slots=%d)",
				s, s.N(), s.N()*2*s.Dim)
		}
	}
}

// TestNewRejectsOverCapacityShape: New must panic on an over-capacity
// shape before allocating anything (an N ≈ 2.1e9 proc slab would OOM the
// test if the check ran after the allocation).
func TestNewRejectsOverCapacityShape(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted a shape past the int32 arena capacity")
		}
		if !strings.Contains(r.(string), "int32 arena capacity") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	New(grid.New(3, 1290))
}

// TestResetRejectsOverCapacityShape: the same guard on the Reset path,
// and the network must stay usable after the rejected Reset.
func TestResetRejectsOverCapacityShape(t *testing.T) {
	s := grid.New(2, 4)
	net := New(s)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reset accepted a shape past the int32 arena capacity")
			}
		}()
		net.Reset(grid.New(3, 1290))
	}()
	// The failed Reset must not have touched the network.
	p := net.NewPacket(1, 0)
	p.Dst = s.N() - 1
	net.Inject([]*Packet{p})
	if _, err := net.Route(greedyTestPolicy{s}, RouteOpts{}); err != nil {
		t.Fatalf("network unusable after rejected Reset: %v", err)
	}
	if len(net.Held(p.Dst)) != 1 {
		t.Error("packet not delivered after rejected Reset")
	}
}

// TestStaleSentStampAcrossReset is the regression test for the
// stale-slab reuse bug of the struct-of-arrays layout: the grant-stamp
// slab survives Reset while the clock rewinds to zero, so a packet id
// reused after a Reset could carry a stamp from the previous problem
// that collides with a fresh clock value — silently dropping the packet
// from its moving queue the first step it fails to win a link at that
// exact clock. NewPacket must re-arm the stamp.
func TestStaleSentStampAcrossReset(t *testing.T) {
	s := grid.New(1, 8)
	net := New(s)

	// Problem 1: packet id 0 travels 0 -> 4, winning grants at clocks
	// 1..4; its stamp slab entry ends at 4.
	p := net.NewPacket(0, 0)
	p.Dst = 4
	net.Inject([]*Packet{p})
	if _, err := net.Route(greedyTestPolicy{s}, RouteOpts{}); err != nil {
		t.Fatal(err)
	}

	// Problem 2 reuses id 0 with the clock rewound. Five farther packets
	// outrank it for the +1 link (farthest-to-go first), so id 0 loses
	// the link at clocks 1..5 — including clock 4, where a stale stamp
	// would equal the clock and evict it from the moving queue unmoved.
	net.Reset(s)
	near := net.NewPacket(0, 0) // id 0 again
	near.Dst = 1
	pkts := []*Packet{near}
	for i := 0; i < 5; i++ {
		q := net.NewPacket(int64(i+1), 0)
		q.Dst = 7
		pkts = append(pkts, q)
	}
	net.Inject(pkts)
	res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
	if err != nil {
		t.Fatalf("stale grant stamp lost a packet: %v", err)
	}
	if res.Delivered != 6 {
		t.Fatalf("delivered %d of 6 packets; the near packet vanished", res.Delivered)
	}
	if len(net.Held(1)) != 1 {
		t.Error("near packet not delivered to rank 1")
	}
}

// TestThroughputLargeCounts pins the counter widths at million-processor
// scale: a k-k phase on the n=128 rung moves billions of hops, which
// must survive the trip through RouteResult and the derived throughput
// ratios without wrapping.
func TestThroughputLargeCounts(t *testing.T) {
	res := RouteResult{
		Steps:        5000,
		Delivered:    8 << 20,       // 4 packets per proc at N = 2M
		Hops:         6_000_000_000, // > MaxInt32: wraps if any path narrows to 32 bits
		SumOvershoot: 3_000_000_000, // likewise
		Workers:      4,
		Elapsed:      10 * time.Second,
		WorkerBusy:   30 * time.Second,
	}
	if res.Hops != 6_000_000_000 || res.SumOvershoot != 3_000_000_000 {
		t.Fatal("volume counters narrowed below int64")
	}
	if got, want := res.PacketsPerStep(), 6_000_000_000.0/5000.0; got != want {
		t.Errorf("PacketsPerStep = %v, want %v", got, want)
	}
	if got, want := res.AvgOvershoot(), 3_000_000_000.0/float64(8<<20); got != want {
		t.Errorf("AvgOvershoot = %v, want %v", got, want)
	}
	if got, want := res.StepsPerSec(), 500.0; got != want {
		t.Errorf("StepsPerSec = %v, want %v", got, want)
	}
	if got, want := res.WorkerUtilization(), 0.75; got != want {
		t.Errorf("WorkerUtilization = %v, want %v", got, want)
	}
	th := res.Throughput()
	if th.StepsPerSec != res.StepsPerSec() || th.PacketsPerStep != res.PacketsPerStep() || th.WorkerUtil != res.WorkerUtilization() {
		t.Error("Throughput bundle disagrees with the per-ratio methods")
	}

	// Zero denominators must yield zeros, not NaN or Inf panics.
	var zero RouteResult
	if zero.PacketsPerStep() != 0 || zero.AvgOvershoot() != 0 || zero.StepsPerSec() != 0 || zero.WorkerUtilization() != 0 {
		t.Errorf("zero-denominator ratios not zero: %v %v %v %v",
			zero.PacketsPerStep(), zero.AvgOvershoot(), zero.StepsPerSec(), zero.WorkerUtilization())
	}
}

// TestShardSizing pins the shard-tuning rules: shards shrink until the
// expected worker pool sees at least 8 shards each (so skewed activation
// cannot serialize on one worker), never below 16 processors, and
// Net.ShardShift overrides the result within [4, 16].
func TestShardSizing(t *testing.T) {
	cases := []struct {
		shape     grid.Shape
		workers   int
		override  int
		wantShift uint
	}{
		{grid.New(3, 16), 1, 0, 7},   // 4096 procs, 1 worker: 4096>>7 = 32 >= 8 shards, default stands
		{grid.New(3, 16), 16, 0, 5},  // needs >= 128 shards: 4096>>5 = 128
		{grid.New(2, 4), 1, 0, 4},    // tiny net bottoms out at the floor
		{grid.New(3, 16), 1, 2, 4},   // override clamps up to the floor
		{grid.New(3, 16), 1, 99, 16}, // and down to the ceiling
		{grid.New(3, 16), 1, 9, 9},   // in-range override wins verbatim
	}
	for _, c := range cases {
		n := New(c.shape)
		n.Pool = testPool(t, c.workers)
		n.ShardShift = c.override
		st := newStepState(n)
		if st.shardShift != c.wantShift {
			t.Errorf("%v workers=%d override=%d: shardShift = %d, want %d",
				c.shape, c.workers, c.override, st.shardShift, c.wantShift)
		}
		if st.numShards != (c.shape.N()+st.shardSize-1)>>st.shardShift {
			t.Errorf("%v: inconsistent shard count", c.shape)
		}
	}
}
