package pipeline_test

import (
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
)

// TestLocalLoopInspectAccounting: the runner is the single place stats
// are accumulated, so its bookkeeping contract is pinned down directly:
// Local phases record returned cost plus any self-charged clock advance,
// Loop rounds record one stat each and stop on done without recording,
// Inspect phases cost zero, and the observer sees every stat in order.
func TestLocalLoopInspectAccounting(t *testing.T) {
	s := grid.New(2, 4)
	var seen []pipeline.PhaseStat
	r := pipeline.New(pipeline.Config{
		Shape:    s,
		Observer: func(st pipeline.PhaseStat) { seen = append(seen, st) },
	})
	keys := make([]int64, s.N())
	if _, err := r.InjectKeys(1, keys); err != nil {
		t.Fatal(err)
	}
	err := r.Run(
		pipeline.Local{Name: "charged", Apply: func(*engine.Net) (int, error) { return 5, nil }},
		pipeline.Local{Name: "self-advancing", Kind: "shear", Apply: func(net *engine.Net) (int, error) {
			net.AdvanceClock(3) // a Local phase may drive the clock itself
			return 2, nil
		}},
		pipeline.Loop{Name: "round", Max: 5, Round: func(net *engine.Net, round int) (int, bool, error) {
			if round == 2 {
				return 0, true, nil // done: not recorded
			}
			return 4, false, nil
		}},
		pipeline.Inspect{Name: "check", Fn: func(*engine.Net) error { return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	tot := r.Report()
	wantNames := []string{"charged", "self-advancing", "round", "round", "check"}
	wantSteps := []int{5, 5, 4, 4, 0}
	wantKinds := []string{"oracle", "shear", "oracle", "oracle", "check"}
	if len(tot.Phases) != len(wantNames) {
		t.Fatalf("got %d phases, want %d: %+v", len(tot.Phases), len(wantNames), tot.Phases)
	}
	for i, ph := range tot.Phases {
		if ph.Name != wantNames[i] || ph.Steps != wantSteps[i] || ph.Kind != wantKinds[i] {
			t.Errorf("phase %d = %s/%s/%d, want %s/%s/%d",
				i, ph.Name, ph.Kind, ph.Steps, wantNames[i], wantKinds[i], wantSteps[i])
		}
	}
	if tot.OracleSteps != 18 || tot.RouteSteps != 0 {
		t.Errorf("oracle=%d route=%d, want 18/0", tot.OracleSteps, tot.RouteSteps)
	}
	if tot.TotalSteps != r.Net().Clock() || tot.TotalSteps != 18 {
		t.Errorf("total=%d clock=%d, want 18", tot.TotalSteps, r.Net().Clock())
	}
	if len(seen) != len(tot.Phases) {
		t.Fatalf("observer saw %d stats, want %d", len(seen), len(tot.Phases))
	}
	for i := range seen {
		if seen[i] != tot.Phases[i] {
			t.Errorf("observer stat %d = %+v != totals %+v", i, seen[i], tot.Phases[i])
		}
	}
}

// TestRoutePhaseAccounting: a Route phase folds the engine result into
// the totals and keeps the raw result available via LastRoute.
func TestRoutePhaseAccounting(t *testing.T) {
	s := grid.New(2, 4)
	r := pipeline.New(pipeline.Config{Shape: s, Policy: route.NewGreedy(s)})
	keys := make([]int64, s.N())
	pkts, err := r.InjectKeys(1, keys)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run(pipeline.Route{Name: "reverse", Bound: s.Diameter(), Prepare: func(*engine.Net) error {
		for i, p := range pkts {
			p.Dst = s.N() - 1 - i
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	tot := r.Report()
	if len(tot.Phases) != 1 || tot.Phases[0].Kind != pipeline.KindRoute {
		t.Fatalf("phases = %+v", tot.Phases)
	}
	rr := r.LastRoute()
	if rr.Steps == 0 || rr.Steps != tot.Phases[0].Steps || rr.Steps != tot.RouteSteps {
		t.Errorf("steps: engine %d, phase %d, totals %d — must agree and be nonzero",
			rr.Steps, tot.Phases[0].Steps, tot.RouteSteps)
	}
	if tot.Phases[0].Bound != s.Diameter() || tot.Bound != s.Diameter() {
		t.Errorf("bound: phase %d, report %d, want %d", tot.Phases[0].Bound, tot.Bound, s.Diameter())
	}
	if tot.Phases[0].MaxQueue != rr.MaxQueue || tot.MaxQueue < rr.MaxQueue {
		t.Errorf("queue accounting: phase %d, totals %d, engine %d",
			tot.Phases[0].MaxQueue, tot.MaxQueue, rr.MaxQueue)
	}
	if tot.Phases[0].Throughput != rr.Throughput() {
		t.Errorf("phase throughput %+v != engine %+v", tot.Phases[0].Throughput, rr.Throughput())
	}
}

// TestInjectKeysRejectsWrongCount: the canonical input contract.
func TestInjectKeysRejectsWrongCount(t *testing.T) {
	r := pipeline.New(pipeline.Config{Shape: grid.New(2, 4)})
	if _, err := r.InjectKeys(1, make([]int64, 7)); err == nil {
		t.Fatal("short key slice accepted")
	}
}

// TestPhaseErrorKeepsPrefix: a failing phase truncates the program; the
// totals keep the completed prefix's stats and the error carries the
// phase name.
func TestPhaseErrorKeepsPrefix(t *testing.T) {
	s := grid.New(2, 4)
	r := pipeline.New(pipeline.Config{Shape: s})
	keys := make([]int64, s.N())
	if _, err := r.InjectKeys(1, keys); err != nil {
		t.Fatal(err)
	}
	boom := pipeline.Local{Name: "boom", Apply: func(*engine.Net) (int, error) {
		return 0, errTest
	}}
	err := r.Run(
		pipeline.Local{Name: "ok", Apply: func(*engine.Net) (int, error) { return 7, nil }},
		boom,
		pipeline.Local{Name: "never", Apply: func(*engine.Net) (int, error) {
			t.Error("phase after the failure ran")
			return 0, nil
		}},
	)
	if err == nil {
		t.Fatal("no error")
	}
	tot := r.Report()
	if len(tot.Phases) != 1 || tot.Phases[0].Name != "ok" {
		t.Fatalf("prefix phases = %+v, want just 'ok'", tot.Phases)
	}
	if tot.TotalSteps != 7 || tot.OracleSteps != 7 {
		t.Errorf("totals = %+v, want the prefix's 7 steps", tot)
	}
}

type testErr struct{}

func (testErr) Error() string { return "test failure" }

var errTest = testErr{}

// TestRunnerReset: a warm runner re-armed with Reset behaves like a
// fresh one — empty network, zero clock, discarded totals and LastRoute —
// on both same-shape and shape-changing resets, and produces identical
// results on an identical re-run.
func TestRunnerReset(t *testing.T) {
	s := grid.New(2, 4)
	cfg := pipeline.Config{Shape: s, Policy: route.NewGreedy(s)}
	reverse := func(r *pipeline.Runner) pipeline.Report {
		t.Helper()
		keys := make([]int64, s.N())
		pkts, err := r.InjectKeys(1, keys)
		if err != nil {
			t.Fatal(err)
		}
		err = r.Run(pipeline.Route{Name: "reverse", Prepare: func(*engine.Net) error {
			for i, p := range pkts {
				p.Dst = s.N() - 1 - i
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		return r.Report()
	}
	r := pipeline.New(cfg)
	first := reverse(r)
	r.Reset(cfg)
	if r.Net().Clock() != 0 || r.Net().TotalPackets() != 0 {
		t.Fatal("Reset left packets or clock behind")
	}
	if tot := r.Report(); len(tot.Phases) != 0 || tot.TotalSteps != 0 || tot.MaxQueue != 0 {
		t.Fatalf("Reset kept totals: %+v", tot)
	}
	if rr := r.LastRoute(); rr.Steps != 0 {
		t.Fatalf("Reset kept LastRoute: %+v", rr)
	}
	second := reverse(r)
	if first.RouteSteps != second.RouteSteps || first.MaxQueue != second.MaxQueue {
		t.Errorf("warm re-run diverged: %+v vs %+v", first, second)
	}

	// Shape-changing reset: same processor count, different dimension
	// (the out-slot slab case — see engine.Net.Reset).
	s3 := grid.New(3, 4)
	cfg3 := pipeline.Config{Shape: s3, Policy: route.NewGreedy(s3)}
	r.Reset(cfg3)
	keys := make([]int64, s3.N())
	pkts, err := r.InjectKeys(1, keys)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run(pipeline.Route{Name: "reverse3", Prepare: func(*engine.Net) error {
		for i, p := range pkts {
			p.Dst = s3.N() - 1 - i
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Net().TotalPackets() != s3.N() {
		t.Error("post-reset run lost packets")
	}
}
