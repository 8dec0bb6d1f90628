package pipeline_test

import (
	"strings"
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
)

// reversalProgram routes every packet to the reversal permutation's
// destination: a deterministic program whose totals can be compared
// between a warm (Reset) runner and a freshly built one.
func reversalProgram(s grid.Shape) pipeline.Phase {
	return pipeline.Route{Name: "reversal", Prepare: func(net *engine.Net) error {
		prob := perm.Reversal(s)
		pkts := make([]*engine.Packet, prob.Size())
		for i := range pkts {
			pkts[i] = net.NewPacket(int64(prob.Dst[i]), prob.Src[i])
			pkts[i].Dst = prob.Dst[i]
		}
		net.Inject(pkts)
		return nil
	}}
}

func runReversal(t *testing.T, r *pipeline.Runner) pipeline.Report {
	t.Helper()
	if err := r.Run(reversalProgram(r.Net().Shape)); err != nil {
		t.Fatal(err)
	}
	return r.Report()
}

// TestResetAcrossPoolsAndFaults pins down the documented Reset contract:
// a warm runner may be re-armed with a different worker pool, a
// different (or no) fault plan, and a different policy, and then behaves
// exactly like a freshly built runner. The old pool is closed before the
// warm run to prove the runner holds no reference to it.
func TestResetAcrossPoolsAndFaults(t *testing.T) {
	s := grid.New(2, 8)
	poolA := engine.NewPool(2)
	poolB := engine.NewPool(3)
	defer poolB.Close()

	plan := engine.RandomFaultPlan(s, 0.05, 7)
	faulted := pipeline.Config{
		Shape:  s,
		Pool:   poolA,
		Policy: route.NewFaultGreedy(s, plan),
		Route:  engine.RouteOpts{Faults: plan},
	}
	clean := pipeline.Config{Shape: s, Pool: poolB, Policy: route.NewGreedy(s)}

	r := pipeline.New(faulted)
	runReversal(t, r)

	// Re-arm on a different pool with no faults; the old pool and the old
	// fault plan must leave no trace.
	r.Reset(clean)
	poolA.Close()
	warm := runReversal(t, r)
	if warm.Stranded != 0 {
		t.Errorf("warm clean run stranded %d packets; fault state leaked through Reset", warm.Stranded)
	}

	fresh := runReversal(t, pipeline.New(clean))
	if warm.TotalSteps != fresh.TotalSteps || warm.RouteSteps != fresh.RouteSteps ||
		warm.MaxQueue != fresh.MaxQueue || len(warm.Phases) != len(fresh.Phases) {
		t.Errorf("warm totals %+v differ from fresh totals %+v", warm, fresh)
	}

	// And back onto a fault plan: the warm runner must strand/route
	// exactly like a fresh faulted runner (determinism is seeded).
	faulted.Pool = poolB
	r.Reset(faulted)
	warmFaulted := runReversal(t, r)
	freshCfg := faulted
	freshFaulted := runReversal(t, pipeline.New(freshCfg))
	if warmFaulted.TotalSteps != freshFaulted.TotalSteps || warmFaulted.Stranded != freshFaulted.Stranded {
		t.Errorf("warm faulted totals %+v differ from fresh %+v", warmFaulted, freshFaulted)
	}
}

// TestResetAcrossShapes re-arms one runner through a mesh, a torus of a
// different dimension, and back, comparing each run against a fresh
// runner of that shape.
func TestResetAcrossShapes(t *testing.T) {
	shapes := []grid.Shape{grid.New(2, 8), grid.NewTorus(3, 4), grid.New(2, 8)}
	r := pipeline.New(pipeline.Config{Shape: shapes[0], Policy: route.NewGreedy(shapes[0])})
	for i, s := range shapes {
		if i > 0 {
			r.Reset(pipeline.Config{Shape: s, Policy: route.NewGreedy(s)})
		}
		warm := runReversal(t, r)
		fresh := runReversal(t, pipeline.New(pipeline.Config{Shape: s, Policy: route.NewGreedy(s)}))
		if warm.TotalSteps != fresh.TotalSteps || warm.MaxQueue != fresh.MaxQueue {
			t.Errorf("shape %v: warm totals %+v differ from fresh %+v", s, warm, fresh)
		}
	}
}

// TestResetAcrossLadderRungs repurposes one warm runner up and down the
// benchmark ladder's d=3 rungs (the service's warm-runner pool does
// exactly this when a lease asks for a different rung): every warm run
// must match a fresh runner of that rung exactly, in both the growing and
// the shrinking direction and including an InjectKeys-driven load, so no
// arena, queue, or step-scratch state learned at one N leaks into
// another.
func TestResetAcrossLadderRungs(t *testing.T) {
	rungs := []grid.Shape{grid.New(3, 4), grid.New(3, 8), grid.New(3, 4), grid.New(3, 8)}
	r := pipeline.New(pipeline.Config{Shape: rungs[0], Policy: route.NewGreedy(rungs[0])})
	for i, s := range rungs {
		if i > 0 {
			r.Reset(pipeline.Config{Shape: s, Policy: route.NewGreedy(s)})
		}
		warm := runReversal(t, r)
		fresh := runReversal(t, pipeline.New(pipeline.Config{Shape: s, Policy: route.NewGreedy(s)}))
		if warm.TotalSteps != fresh.TotalSteps || warm.MaxQueue != fresh.MaxQueue {
			t.Errorf("rung %v: warm totals %+v differ from fresh %+v", s, warm, fresh)
		}
		// The warm arena must also accept a fresh key injection at the new
		// rung's size (ids restart at 0, capacity is reused or grown).
		r.Reset(pipeline.Config{Shape: s, Policy: route.NewGreedy(s)})
		pkts, err := r.InjectKeys(2, make([]int64, 2*s.N()))
		if err != nil {
			t.Fatalf("rung %v: inject on the warm runner: %v", s, err)
		}
		if pkts[0].ID != 0 || pkts[len(pkts)-1].ID != 2*s.N()-1 {
			t.Fatalf("rung %v: ids did not restart cleanly after repurposing", s)
		}
		r.Reset(pipeline.Config{Shape: s, Policy: route.NewGreedy(s)})
	}
}

// TestInjectKeysErrors: every misuse of InjectKeys is a clear error, not
// an index panic downstream.
func TestInjectKeysErrors(t *testing.T) {
	s := grid.New(2, 4)
	r := pipeline.New(pipeline.Config{Shape: s})

	if _, err := r.InjectKeys(1, make([]int64, s.N()-1)); err == nil ||
		!strings.Contains(err.Error(), "want k*N") {
		t.Errorf("short key slice: got %v, want a key-count error", err)
	}
	if _, err := r.InjectKeys(0, nil); err == nil || !strings.Contains(err.Error(), "k >= 1") {
		t.Errorf("k=0: got %v, want a k >= 1 error", err)
	}
	if _, err := r.InjectKeys(-2, make([]int64, 4)); err == nil || !strings.Contains(err.Error(), "k >= 1") {
		t.Errorf("k=-2: got %v, want a k >= 1 error", err)
	}
	// A load past the int32 packet-id space must be rejected before the
	// key-count check (no caller could supply that slice anyway).
	if _, err := r.InjectKeys(1<<28, nil); err == nil ||
		!strings.Contains(err.Error(), "packet id space") {
		t.Errorf("overflowing k*N: got %v, want a packet-id-space error", err)
	}

	if _, err := r.InjectKeys(1, make([]int64, s.N())); err != nil {
		t.Fatal(err)
	}
	if _, err := r.InjectKeys(1, make([]int64, s.N())); err == nil ||
		!strings.Contains(err.Error(), "already holding") {
		t.Errorf("double inject: got %v, want an already-holding error", err)
	}

	// Reset clears the arena; injection works again.
	r.Reset(pipeline.Config{Shape: s})
	if _, err := r.InjectKeys(2, make([]int64, 2*s.N())); err != nil {
		t.Errorf("inject after Reset: %v", err)
	}
}
