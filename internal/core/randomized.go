package core

import (
	"fmt"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/xmath"
)

// Section 2.1 of the paper presents every algorithm in two forms: a
// randomized one following Valiant-Brebner (send packets to random
// intermediate destinations) and a deterministic one where the
// sort-and-unshuffle operation substitutes for the randomization. The
// deterministic forms are the default implementations (SimpleSort,
// TwoPhaseRoute); this file adds the randomized forms, so experiment E14
// can verify the paper's derandomization claim: the deterministic
// algorithms match the randomized ones' performance.

// RandSimpleSort is the randomized form of SimpleSort: step (2) sends
// every packet to a uniformly random processor of the center region
// (with a uniformly random routing class) instead of the unshuffle
// positions, and step (4) estimates ranks from the sampled local ranks.
// The random placement is only even up to sampling noise, so the final
// merge cleanup typically runs slightly longer than in the deterministic
// form — that difference is the content of experiment E14.
func RandSimpleSort(cfg Config, keys []int64) (Result, error) {
	res := Result{Report: pipeline.Report{Algorithm: "RandSimpleSort"}, Config: cfg}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	if cfg.RealLocalSort {
		return res, fmt.Errorf("core: RandSimpleSort cannot use RealLocalSort: random placement leaves non-uniform block loads")
	}
	s := cfg.Shape
	k := cfg.k()
	d := s.Dim
	blocked := cfg.scheme()
	bs := blocked.Spec
	B := blocked.BlockCount()
	V := blocked.BlockVolume()
	kN := k * s.N()

	count := cfg.CenterCount
	if count == 0 {
		count = B / 2
	}
	region := grid.CenterBlocks(bs, count)
	R := region.Size()
	rng := xmath.NewRNG(cfg.Seed).Split(0x5a4d)

	runner := cfg.runner()
	if _, err := runner.InjectKeys(k, keys); err != nil {
		return res, err
	}
	routeBound := 3 * s.Diameter() / 4

	var centerSorted [][]int32
	var merges int
	var sorted bool
	prog := []pipeline.Phase{
		// Step (1) is not needed in the randomized form (no local ranks
		// are used for the spreading), but the packets still pay the
		// local sort that the deterministic form uses to define classes;
		// we charge nothing here and let the class choice be random,
		// following Valiant-Brebner. Step (2): random placement over C.
		pipeline.Route{Name: "random-to-center", Bound: routeBound, Prepare: func(net *engine.Net) error {
			for j := 0; j < B; j++ {
				for pos := 0; pos < V; pos++ {
					rank := blocked.ProcAtLocal(blocked.BlockAtOrder(j), pos)
					for _, id := range net.Held(rank) {
						p := net.Packet(id)
						c := rng.Intn(R)
						slot := rng.Intn(V)
						p.Dst = blocked.ProcAtLocal(region.BlockAt(c), slot)
						p.Class = rng.Intn(d)
					}
				}
			}
			return nil
		}},

		// Step (3): local sort inside every center block. Block loads
		// are only approximately kN/R, so the estimate uses the actual
		// load.
		localSortPhase("local-sort-center", blocked, region.Blocks, cfg, runner, &centerSorted),

		// Step (4): rank estimate from the block's sampled order: local
		// rank i among M packets pins the global rank near i*kN/M.
		pipeline.Route{Name: "route-to-destination", Bound: routeBound, Prepare: func(net *engine.Net) error {
			for jp, ps := range centerSorted {
				M := len(ps)
				if M == 0 {
					continue
				}
				for i, id := range ps {
					p := net.Packet(id)
					est := i*kN/M + jp
					if est >= kN {
						est = kN - 1
					}
					p.Dst = blocked.RankAt(est / k)
					p.Class = rng.Intn(d)
				}
			}
			return nil
		}},

		// Step (5): merge cleanup.
		mergeCleanupPhase(blocked, k, cfg.Cost, runner, 0, &merges, &sorted),
	}
	err := runner.Run(prog...)
	res.Report = runner.Report()
	res.Algorithm, res.MergeRounds = "RandSimpleSort", merges
	res.Sorted = sorted || err == nil && isSorted(runner, blocked, k)
	res.Delivered = res.Sorted
	if err != nil {
		return res, fmt.Errorf("core: RandSimpleSort: %w", err)
	}
	net := runner.Net()
	if !res.Sorted {
		return res, fmt.Errorf("core: RandSimpleSort failed to sort within %d merge rounds", res.MergeRounds)
	}
	if got := net.TotalPackets(); got != kN {
		return res, fmt.Errorf("core: RandSimpleSort packet conservation violated: %d != %d", got, kN)
	}
	res.Final = finalKeys(runner, blocked, k, nil)
	return res, nil
}

// RandTwoPhaseRoute is the randomized form of the Section 5 routing
// algorithm: every packet picks a uniformly random intermediate
// *processor* within D/2 + nu of both its source and its destination
// (per-processor S_nu(x,y), as in the paper's randomized description),
// found by rejection sampling with a deterministic block-based fallback.
func RandTwoPhaseRoute(cfg RouteConfig, prob perm.Problem) (pipeline.Report, error) {
	s := cfg.Shape
	res := pipeline.Report{Algorithm: "RandTwoPhaseRoute", Extras: pipeline.Extras{Nu: cfg.nu()}}
	if cfg.BlockSide < 1 || s.Side%cfg.BlockSide != 0 {
		return res, fmt.Errorf("core: block side %d must divide mesh side %d", cfg.BlockSide, s.Side)
	}
	D := s.Diameter()
	nu := cfg.nu()
	res.EffectiveNu = nu
	rng := xmath.NewRNG(cfg.Seed).Split(0x29)

	runner := cfg.runner()
	net := runner.Net()
	pkts := make([]*engine.Packet, prob.Size())
	for i := range pkts {
		pkts[i] = net.NewPacket(int64(prob.Dst[i]), prob.Src[i])
	}
	net.Inject(pkts)

	limit := D/2 + nu
	for i, p := range pkts {
		x, y := prob.Src[i], prob.Dst[i]
		z := -1
		for try := 0; try < 64; try++ {
			cand := rng.Intn(s.N())
			if s.Dist(x, cand) <= limit && s.Dist(cand, y) <= limit {
				z = cand
				break
			}
		}
		if z < 0 {
			// Deterministic fallback: walk from x toward y and take a
			// midpoint processor, which is within ceil(dist/2) <= D/2 of
			// both.
			z = midpoint(s, x, y)
			if m := xmath.Max(s.Dist(x, z), s.Dist(z, y)); m > limit && m-D/2 > res.EffectiveNu {
				res.EffectiveNu = m - D/2
			}
		}
		p.Dst = z
		p.Class = rng.Intn(s.Dim)
	}
	res.Bound = D + 2*res.EffectiveNu
	phaseBound := D/2 + res.EffectiveNu

	err := runner.Run(
		pipeline.Route{Name: "to-intermediate", Bound: phaseBound},
		pipeline.Route{Name: "to-destination", Bound: phaseBound, Prepare: func(*engine.Net) error {
			for i, p := range pkts {
				p.Dst = prob.Dst[i]
				p.Class = rng.Intn(s.Dim)
			}
			return nil
		}},
	)
	res = routeReport(runner, res)
	if err != nil {
		return res, fmt.Errorf("core: randomized routing: %w", err)
	}
	res.Delivered = true
	for i, p := range pkts {
		if p.Dst != prob.Dst[i] {
			res.Delivered = false
		}
	}
	return res, nil
}

// midpoint returns a processor halfway between x and y (coordinate-wise
// midpoint, respecting torus wrap-around), which is within
// ceil(dist(x,y)/2) of both.
func midpoint(s grid.Shape, x, y int) int {
	cx := s.Coords(x, nil)
	cy := s.Coords(y, nil)
	mid := make([]int, s.Dim)
	for i := range mid {
		if !s.Torus {
			mid[i] = (cx[i] + cy[i]) / 2
			continue
		}
		fwd := xmath.Mod(cy[i]-cx[i], s.Side)
		if fwd <= s.Side-fwd {
			mid[i] = xmath.Mod(cx[i]+fwd/2, s.Side)
		} else {
			back := s.Side - fwd
			mid[i] = xmath.Mod(cx[i]-back/2, s.Side)
		}
	}
	return s.Rank(mid)
}
