package engine

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"meshsort/internal/grid"
	"meshsort/internal/xmath"
)

func TestPoolRunsEveryWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		var hit [8]int32
		for round := 0; round < 3; round++ { // reuse across runs
			for i := range hit {
				hit[i] = 0
			}
			p.Run(func(w int) { atomic.AddInt32(&hit[w], 1) })
			for w := 0; w < workers; w++ {
				if hit[w] != 1 {
					t.Fatalf("workers=%d round %d: worker %d ran %d times", workers, round, w, hit[w])
				}
			}
		}
		p.Close()
	}
}

func TestPoolDefaultSize(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("default pool size %d, want GOMAXPROCS %d", p.Workers(), runtime.GOMAXPROCS(0))
	}
}

func TestPoolPanicPropagatesAndPoolSurvives(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for round := 0; round < 2; round++ { // the pool must stay usable after a panic
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("round %d: worker panic not propagated", round)
				}
			}()
			p.Run(func(w int) {
				if w == round%2 { // panic on the caller slot and on a spawned worker
					panic("boom")
				}
			})
		}()
		var ran int32
		p.Run(func(w int) { atomic.AddInt32(&ran, 1) })
		if int(ran) != p.Workers() {
			t.Fatalf("round %d: pool broken after panic: %d/%d workers ran", round, ran, p.Workers())
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
	var nilPool *Pool
	nilPool.Close() // must not crash
}

// TestSharedPoolAcrossPhasesAndNets: one pool drives several phases on
// several networks and produces the same simulation as no pool (one
// worker on the caller's goroutine).
func TestSharedPoolAcrossPhasesAndNets(t *testing.T) {
	run := func(pool *Pool) [2]RouteResult {
		var out [2]RouteResult
		for i, s := range []grid.Shape{grid.New(3, 4), grid.NewTorus(2, 6)} {
			net := New(s)
			net.Pool = pool
			rng := xmath.NewRNG(11)
			dsts := rng.Perm(s.N())
			pkts := make([]*Packet, s.N())
			for j := range pkts {
				pkts[j] = net.NewPacket(0, j)
				pkts[j].Dst = dsts[j]
			}
			net.Inject(pkts)
			res, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
			if err != nil {
				t.Fatal(err)
			}
			// A second phase through the same pool: send everything home.
			for _, p := range pkts {
				p.Dst = p.Src
			}
			res2, err := net.Route(greedyTestPolicy{s}, RouteOpts{})
			if err != nil {
				t.Fatal(err)
			}
			res.Steps += res2.Steps
			res.Hops += res2.Hops
			out[i] = normalizeResult(res)
		}
		return out
	}
	pool := NewPool(4)
	defer pool.Close()
	shared := run(pool)
	serial := run(nil)
	if !reflect.DeepEqual(shared, serial) {
		t.Errorf("shared pool changed the simulation:\nshared %+v\nserial %+v", shared, serial)
	}
}

// normalizeResult zeroes the wall-clock fields, which are excluded from
// the determinism guarantee.
func normalizeResult(r RouteResult) RouteResult {
	r.Workers = 0
	r.Elapsed = 0
	r.WorkerBusy = 0
	return r
}
