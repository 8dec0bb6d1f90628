package core

import (
	"fmt"
	"sort"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
	"meshsort/internal/xmath"
)

// This file implements the permutation routing algorithms of Section 5
// (Theorems 5.1-5.3): a two-phase scheme that sends every packet through
// an intermediate processor that is within D/2 + nu of both its source
// and its destination, so both phases route at most D/2 + nu and the
// total is D + 2*nu + o(n). With nu = n/2 on the mesh this gives
// D + n + o(n) (Theorem 5.1); with nu = n/16 on the torus, D + n/8 + o(n)
// (Theorem 5.2); and as d grows the feasible nu shrinks toward zero
// (Theorem 5.3, see MinNu).

// RouteConfig describes one run of the two-phase routing algorithm.
type RouteConfig struct {
	Shape     grid.Shape
	BlockSide int // block side of the deterministic spreading
	// Nu is the detour slack: intermediates are drawn from blocks within
	// D/2 + Nu of both endpoint blocks. 0 means the paper's choice:
	// n/2 on the mesh, max(1, n/16) on the torus.
	Nu   int
	Seed uint64
	// ShardShift overrides the engine's shard sizing; see core.Config.
	ShardShift int
	// Pool optionally supplies a persistent engine worker pool shared by
	// both routing phases; nil means one worker, the caller's goroutine.
	Pool *engine.Pool
	// Runner optionally supplies a warm pipeline runner to execute on
	// instead of building a fresh one; see core.Config.Runner.
	Runner *pipeline.Runner
	Cost   CostModel

	// Observer, if set, receives every phase's PhaseStat as it completes
	// (cmd/meshsort exposes it as -trace).
	Observer pipeline.Observer

	FaultOpts
}

// runner builds (or re-arms, when RouteConfig.Runner supplies a warm
// runner) the pipeline runner a routing run executes on.
func (c RouteConfig) runner() *pipeline.Runner {
	return pipeline.Arm(c.Runner, pipeline.Config{
		Shape:      c.Shape,
		ShardShift: c.ShardShift,
		Pool:       c.Pool,
		Policy:     c.Policy(c.Shape),
		Route:      c.RouteOpts(),
		Observer:   c.Observer,
	})
}

func (c RouteConfig) nu() int {
	if c.Nu != 0 {
		return c.Nu
	}
	if c.Shape.Torus {
		return xmath.Max(1, c.Shape.Side/16)
	}
	return c.Shape.Side / 2
}

// TwoPhaseRoute routes a 1-1 problem in two distance-bounded phases.
// Deterministic version of Section 5: the network is partitioned into
// blocks of side b; all packets with sources in block X and destinations
// in block Y are spread evenly (round-robin) over S_nu(X,Y), the set of
// blocks within D/2 + nu of both X and Y, and then delivered. Block
// distances are measured conservatively (center distance plus block
// radii), so a packet assigned to S_nu travels at most D/2 + nu in each
// phase. If S_nu(X,Y) is empty for some pair at the given finite size,
// the slack is relaxed minimally for that pair and the relaxation is
// reported in EffectiveNu. The report's Bound is the theorem's
// D + 2*EffectiveNu for the whole run.
func TwoPhaseRoute(cfg RouteConfig, prob perm.Problem) (pipeline.Report, error) {
	s := cfg.Shape
	res := pipeline.Report{Algorithm: "TwoPhaseRoute", Extras: pipeline.Extras{Nu: cfg.nu(), EffectiveNu: cfg.nu()}}
	if err := s.Validate(); err != nil {
		return res, fmt.Errorf("core: %w", err)
	}
	if cfg.BlockSide < 1 || s.Side%cfg.BlockSide != 0 {
		return res, fmt.Errorf("core: block side %d must divide mesh side %d", cfg.BlockSide, s.Side)
	}
	bs := grid.Blocks(s, cfg.BlockSide)
	B := bs.Count()
	V := bs.Volume()
	D := s.Diameter()
	d := s.Dim
	nu := cfg.nu()

	runner := cfg.runner()
	net := runner.Net()
	pkts := make([]*engine.Packet, prob.Size())
	for i := range pkts {
		p := net.NewPacket(int64(prob.Dst[i]), prob.Src[i])
		pkts[i] = p
	}
	net.Inject(pkts)

	// Phase 1 destination assignment. sizeOf caches |S_nu(X,Y)| and the
	// per-pair slack; pick round-robins over the members.
	type pairInfo struct {
		size int
		nu   int // slack used for this pair
		next int // round-robin counter
	}
	pairs := make(map[int]*pairInfo)
	limit := func(pnu int) int { return D/2 + pnu }
	member := func(x, y, z, pnu int) bool {
		return bs.MaxProcDist(x, z) <= limit(pnu) && bs.MaxProcDist(z, y) <= limit(pnu)
	}
	slotCounter := make([]int, B)
	// The assignment below is O(packets * blocks) in the worst case —
	// minutes of CPU on the largest admissible meshes — and runs outside
	// the engine's step loop, so it polls the cancellation hook itself:
	// without this, a deadline or DELETE would go unnoticed until the
	// first routing phase starts.
	const cancelPollStride = 512
	cancelled := func() bool {
		if cfg.Cancel == nil {
			return false
		}
		select {
		case <-cfg.Cancel:
			return true
		default:
			return false
		}
	}
	for i, p := range pkts {
		if i%cancelPollStride == 0 && cancelled() {
			return routeReport(runner, res), fmt.Errorf("core: two-phase routing: %w during intermediate assignment", engine.ErrCancelled)
		}
		x := bs.BlockOf(prob.Src[i])
		y := bs.BlockOf(prob.Dst[i])
		key := x*B + y
		pi := pairs[key]
		if pi == nil {
			pi = &pairInfo{nu: nu}
			for z := 0; z < B; z++ {
				if member(x, y, z, nu) {
					pi.size++
				}
			}
			if pi.size == 0 {
				// Minimal relaxation for this pair. The conservative
				// block-distance bound can exceed D on small networks,
				// so the search starts from an unreachable sentinel.
				need := 1 << 60
				for z := 0; z < B; z++ {
					m := xmath.Max(bs.MaxProcDist(x, z), bs.MaxProcDist(z, y))
					if m < need {
						need = m
					}
				}
				pi.nu = need - D/2
				for z := 0; z < B; z++ {
					if member(x, y, z, pi.nu) {
						pi.size++
					}
				}
				if pi.nu > res.EffectiveNu {
					res.EffectiveNu = pi.nu
				}
			}
			// Offset the round-robin start by a pair hash: with few
			// packets per pair (random permutations) a zero start would
			// pile every pair onto the first member of its S_nu.
			pi.next = int(uint32(key*2654435761) % uint32(pi.size))
			pairs[key] = pi
		}
		// The pi.next-th member of S_nu(X,Y).
		want := pi.next % pi.size
		pi.next++
		zSel := -1
		for z, seen := 0, 0; z < B; z++ {
			if member(x, y, z, pi.nu) {
				if seen == want {
					zSel = z
					break
				}
				seen++
			}
		}
		slot := slotCounter[zSel] % V
		slotCounter[zSel]++
		p.Dst = bs.ProcAt(zSel, slot)
	}
	res.Bound = D + 2*res.EffectiveNu
	phaseBound := D/2 + res.EffectiveNu
	c := cfg.Cost.localSortCost(d, cfg.BlockSide)

	err := runner.Run(
		// The deterministic spreading and class assignment are realized
		// by a block-local sort (o(n), charged once per phase).
		pipeline.Local{Name: "spread-classes-1", Apply: func(*engine.Net) (int, error) {
			route.AssignClasses(s, pkts, nil, route.ClassLocalRank, cfg.BlockSide, cfg.Seed)
			return c, nil
		}},
		pipeline.Route{Name: "to-intermediate", Bound: phaseBound},

		// Phase 2: deliver. Classes are grouped by the packets' current
		// (intermediate) blocks.
		pipeline.Local{Name: "spread-classes-2", Apply: func(*engine.Net) (int, error) {
			locs := make([]int, len(pkts))
			for i, p := range pkts {
				locs[i] = p.Dst // each packet rests at its phase-1 destination
				p.Dst = prob.Dst[i]
			}
			route.AssignClasses(s, pkts, locs, route.ClassLocalRank, cfg.BlockSide, cfg.Seed+1)
			return c, nil
		}},
		pipeline.Route{Name: "to-destination", Bound: phaseBound},
	)
	res = routeReport(runner, res)
	if err != nil {
		return res, fmt.Errorf("core: two-phase routing: %w", err)
	}
	// Delivered means every packet actually rests at its destination —
	// a stranded packet is held wherever its patience ran out.
	res.Delivered = true
	net.ForEachHeld(func(rank int, p *engine.Packet) {
		if p.Dst != rank {
			res.Delivered = false
		}
	})
	return res, nil
}

// MinNu computes the smallest slack nu such that the two-phase scheme
// has enough *bandwidth*: Section 5 requires k * |S_nu(X,Y)| >= n^d for
// every block pair, where k is the number of unshuffle permutations that
// can be routed simultaneously (floor(d/2) on the mesh by Lemma 2.3, 2d
// on the torus by Lemma 2.1). Equivalently, every pair needs at least
// B/k blocks within distance D/2 + nu (measured center-to-center; the
// block radius is an o(n) term excluded here) of both endpoints.
//
// Theorem 5.3's experiment tracks how MinNu shrinks relative to the
// network side length as the dimension grows: concentration of measure
// puts almost all blocks at distance about D/2 from any fixed block, so
// ever smaller slacks suffice. O(B^2 * B log B) — use small block
// counts.
func MinNu(s grid.Shape, blockSide int) int {
	bs := grid.Blocks(s, blockSide)
	B := bs.Count()
	D := s.Diameter()
	k := s.Dim / 2
	if s.Torus {
		k = 2 * s.Dim
	}
	if k < 1 {
		k = 1
	}
	req := xmath.CeilDiv(B, k) // blocks needed in every S_nu(X,Y)
	// Following the paper's reduction, only pairs of *corner* blocks are
	// scanned: S_nu(X,Y) only shrinks when X and Y move toward corners,
	// so corners give the worst (maximal) slack. This cuts the pair scan
	// from B^2 to 4^d.
	var corners []int
	cc := make([]int, s.Dim)
	for mask := 0; mask < 1<<uint(s.Dim); mask++ {
		for i := 0; i < s.Dim; i++ {
			if mask&(1<<uint(i)) != 0 {
				cc[i] = bs.PerDim - 1
			} else {
				cc[i] = 0
			}
		}
		corners = append(corners, bs.BlockID(cc))
	}
	worst := 0
	vals := make([]int, B)
	for _, x := range corners {
		for _, y := range corners {
			for z := 0; z < B; z++ {
				vals[z] = xmath.Max(bs.Dist2(x, z), bs.Dist2(z, y))
			}
			sort.Ints(vals)
			// The req-th smallest bottleneck distance (doubled), halved
			// back to steps.
			need := xmath.CeilDiv(vals[req-1], 2)
			if need > worst {
				worst = need
			}
		}
	}
	nu := worst - D/2
	if nu < 0 {
		nu = 0
	}
	return nu
}

// routeReport returns the runner's report of a two-phase routing run,
// labelled with the run's own fields: its algorithm, its slack extras and
// the theorem's whole-run bound D + 2*EffectiveNu (once known), which
// replaces the folded sum of the phase bounds.
func routeReport(runner *pipeline.Runner, own pipeline.Report) pipeline.Report {
	rep := runner.Report()
	rep.Algorithm, rep.Bound, rep.Extras = own.Algorithm, own.Bound, own.Extras
	return rep
}
