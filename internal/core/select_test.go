package core

import (
	"testing"

	"meshsort/internal/grid"
)

func TestSelectFindsRanks(t *testing.T) {
	cfg := Config{Shape: grid.New(3, 8), BlockSide: 4, Seed: 2}
	keys := RandomKeys(cfg.Shape, 1, 3)
	N := cfg.Shape.N()
	for _, rank := range []int{0, 1, N / 4, N / 2, N - 2, N - 1} {
		res, err := Select(cfg, keys, rank)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if !res.Delivered {
			t.Errorf("rank %d: wrong value %d", rank, res.Value)
		}
	}
}

func TestSelectWithDuplicates(t *testing.T) {
	cfg := Config{Shape: grid.New(2, 16), BlockSide: 4, Seed: 2}
	keys := make([]int64, cfg.Shape.N())
	for i := range keys {
		keys[i] = int64(i % 5)
	}
	for _, rank := range []int{0, 50, 128, 255} {
		res, err := Select(cfg, keys, rank)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Errorf("rank %d with duplicates: value %d", rank, res.Value)
		}
	}
}

func TestSelectTimeNearDiameter(t *testing.T) {
	// Section 4.3 upper bound: D + o(n). Routing steps should stay near
	// D (concentration <= ~3D/4 plus the last hop <= ~D/4), with
	// finite-size slack.
	for _, cfg := range []Config{
		{Shape: grid.New(3, 16), BlockSide: 4, Seed: 4},
		{Shape: grid.New(3, 32), BlockSide: 8, Seed: 4},
	} {
		keys := RandomKeys(cfg.Shape, 1, 9)
		res, err := Select(cfg, keys, cfg.Shape.N()/2)
		if err != nil {
			t.Fatal(err)
		}
		D := cfg.Shape.Diameter()
		slack := 2 * cfg.Shape.Dim * cfg.BlockSide
		if res.RouteSteps > D+slack {
			t.Errorf("%v: selection routing %d steps > D + slack = %d", cfg.Shape, res.RouteSteps, D+slack)
		}
		if !res.Delivered {
			t.Error("median wrong")
		}
	}
}

func TestSelectOnTorus(t *testing.T) {
	cfg := Config{Shape: grid.NewTorus(3, 8), BlockSide: 4, Seed: 5}
	keys := RandomKeys(cfg.Shape, 1, 6)
	res, err := Select(cfg, keys, cfg.Shape.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Error("torus median wrong")
	}
}

func TestSelectRejectsBadRank(t *testing.T) {
	cfg := Config{Shape: grid.New(2, 8), BlockSide: 4}
	keys := RandomKeys(cfg.Shape, 1, 1)
	if _, err := Select(cfg, keys, -1); err == nil {
		t.Error("accepted negative rank")
	}
	if _, err := Select(cfg, keys, cfg.Shape.N()); err == nil {
		t.Error("accepted overflowing rank")
	}
	if _, err := Select(Config{Shape: cfg.Shape, BlockSide: 4, K: 2}, RandomKeys(cfg.Shape, 2, 1), 0); err == nil {
		t.Error("accepted k=2")
	}
}

func TestSelectCandidateWindowReported(t *testing.T) {
	cfg := Config{Shape: grid.New(3, 8), BlockSide: 4, Seed: 6}
	keys := RandomKeys(cfg.Shape, 1, 12)
	res, err := Select(cfg, keys, cfg.Shape.N()/2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates <= 0 || res.Candidates > cfg.Shape.N() {
		t.Errorf("candidate count %d implausible", res.Candidates)
	}
}
