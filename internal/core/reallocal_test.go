package core

import (
	"testing"

	"meshsort/internal/grid"
)

func TestRealLocalSortSorts(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		fn  sortFunc
	}{
		{Config{Shape: grid.New(2, 16), BlockSide: 8, Seed: 1, RealLocalSort: true}, SimpleSort},
		{Config{Shape: grid.New(3, 8), BlockSide: 4, Seed: 1, RealLocalSort: true}, SimpleSort},
		{Config{Shape: grid.New(3, 8), BlockSide: 4, Seed: 1, RealLocalSort: true}, CopySort},
		{Config{Shape: grid.NewTorus(3, 8), BlockSide: 4, Seed: 1, RealLocalSort: true}, TorusSort},
		{Config{Shape: grid.New(3, 8), BlockSide: 4, Seed: 1, RealLocalSort: true}, FullSort},
	} {
		keys := RandomKeys(tc.cfg.Shape, 1, 8)
		res, err := tc.fn(tc.cfg, keys)
		if err != nil {
			t.Fatalf("%v: %v", tc.cfg.Shape, err)
		}
		checkSorted(t, "real-local", keys, res)
		// Real mode must leave shear phases in the log, not oracle
		// local sorts.
		sawShear := false
		for _, ph := range res.Phases {
			if ph.Kind == "shear" {
				sawShear = true
			}
			if ph.Kind == "oracle" && ph.Name != "merge-round" {
				t.Errorf("oracle local phase %s in real mode", ph.Name)
			}
		}
		if !sawShear {
			t.Error("no shear phase recorded")
		}
	}
}

func TestRealLocalSortSameRouting(t *testing.T) {
	// The local-sort mode must not change the routing phases at all:
	// same placements, same routing step counts.
	base := Config{Shape: grid.New(3, 16), BlockSide: 4, Seed: 2}
	keys := RandomKeys(base.Shape, 1, 4)
	oracle, err := SimpleSort(base, keys)
	if err != nil {
		t.Fatal(err)
	}
	base.RealLocalSort = true
	real, err := SimpleSort(base, keys)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.RouteSteps != real.RouteSteps {
		t.Errorf("routing changed with local-sort mode: %d vs %d", oracle.RouteSteps, real.RouteSteps)
	}
	if oracle.MergeRounds != real.MergeRounds {
		t.Errorf("merge rounds changed: %d vs %d", oracle.MergeRounds, real.MergeRounds)
	}
	if real.OracleSteps <= oracle.OracleSteps {
		t.Logf("note: real local sorts (%d steps) cheaper than the oracle charge (%d)", real.OracleSteps, oracle.OracleSteps)
	}
}

func TestRealLocalSortSelect(t *testing.T) {
	cfg := Config{Shape: grid.New(3, 8), BlockSide: 4, Seed: 3, RealLocalSort: true}
	keys := RandomKeys(cfg.Shape, 1, 5)
	res, err := Select(cfg, keys, cfg.Shape.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("median wrong in real mode")
	}
}

func TestRandRejectsRealLocalSort(t *testing.T) {
	cfg := Config{Shape: grid.New(3, 8), BlockSide: 4, RealLocalSort: true}
	if _, err := RandSimpleSort(cfg, RandomKeys(cfg.Shape, 1, 1)); err == nil {
		t.Error("RandSimpleSort accepted RealLocalSort")
	}
}

func TestRealLocalSortKK(t *testing.T) {
	cfg := Config{Shape: grid.New(3, 8), BlockSide: 4, K: 2, Seed: 4, RealLocalSort: true}
	keys := RandomKeys(cfg.Shape, 2, 6)
	res, err := SimpleSort(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, "real-kk", keys, res)
}
