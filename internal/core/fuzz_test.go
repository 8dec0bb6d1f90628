package core

import (
	"sort"
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/route"
	"meshsort/internal/xmath"
)

// Fuzz targets: `go test -fuzz=FuzzSimpleSort ./internal/core` explores
// key assignments and seeds; under plain `go test` the seed corpus runs
// as regression tests.

func FuzzSimpleSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint64(1))
	f.Add([]byte{}, uint64(2))
	f.Add([]byte{255, 0, 255, 0, 7}, uint64(3))
	cfg := Config{Shape: grid.New(2, 8), BlockSide: 4}
	N := cfg.Shape.N()
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		keys := make([]int64, N)
		for i := range keys {
			if len(raw) > 0 {
				keys[i] = int64(int8(raw[i%len(raw)])) // signed, duplicated
			}
		}
		cfg.Seed = seed
		res, err := SimpleSort(cfg, keys)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if res.Final[i] != want[i] {
				t.Fatalf("final[%d] = %d, want %d", i, res.Final[i], want[i])
			}
		}
	})
}

// FuzzFaultedGreedyRoute routes random permutations through randomized
// fault plans and asserts the degraded-run contract: the phase ends
// without error, packets are conserved, and every packet either sits at
// its destination or was explicitly stranded with diagnostics. The
// paranoid engine checker runs every step, so the fuzzer also hunts for
// conservation and accounting violations inside the engine itself.
func FuzzFaultedGreedyRoute(f *testing.F) {
	f.Add(uint8(10), uint64(1), uint64(2))
	f.Add(uint8(0), uint64(3), uint64(4))
	f.Add(uint8(49), uint64(5), uint64(6))
	s := grid.New(3, 8)
	f.Fuzz(func(t *testing.T, rateRaw uint8, faultSeed, probSeed uint64) {
		rate := float64(rateRaw%50) / 1000 // 0% .. 4.9% of edges failed
		plan := engine.RandomFaultPlan(s, rate, faultSeed)
		prob := perm.Random(s, xmath.NewRNG(probSeed))
		res, net, err := route.RunProblem(s, prob, route.BatchOpts{Faults: plan, Paranoid: true})
		if err != nil {
			t.Fatalf("faulted route errored (rate %.3f, %d edges down): %v", rate, plan.DownEdges(), err)
		}
		if net.TotalPackets() != s.N() {
			t.Fatalf("conservation violated: %d packets, want %d", net.TotalPackets(), s.N())
		}
		stranded := make(map[int]bool, len(res.Stranded))
		for _, d := range res.Stranded {
			stranded[d.ID] = true
		}
		held := 0
		net.ForEachHeld(func(rank int, p *engine.Packet) {
			held++
			if p.Dst != rank && !stranded[p.ID] {
				t.Fatalf("packet %d finished at rank %d away from destination %d without being stranded",
					p.ID, rank, p.Dst)
			}
		})
		if held != s.N() {
			t.Fatalf("%d packets held after the phase, want %d (some still mid-route?)", held, s.N())
		}
	})
}

func FuzzSelect(f *testing.F) {
	f.Add([]byte{9, 9, 1}, uint16(0))
	f.Add([]byte{1}, uint16(31))
	cfg := Config{Shape: grid.New(2, 8), BlockSide: 4, Seed: 1}
	N := cfg.Shape.N()
	f.Fuzz(func(t *testing.T, raw []byte, rank16 uint16) {
		keys := make([]int64, N)
		for i := range keys {
			if len(raw) > 0 {
				keys[i] = int64(raw[i%len(raw)])
			}
		}
		rank := int(rank16) % N
		res, err := Select(cfg, keys, rank)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("Select(rank=%d) = %d is wrong", rank, res.Value)
		}
	})
}
