package core

import (
	"fmt"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
	"meshsort/internal/xmath"
)

// CopySort implements Algorithm CopySort of Section 3.2 (Theorem 3.2):
// 1-1 sorting on the d-dimensional mesh in 5D/4 + o(n) steps, making one
// copy of each packet. Steps (1), (3), and (5) are as in SimpleSort; in
// step (2) every packet additionally sends a copy of itself to the
// processor reflected through the mesh center from the original's
// intermediate destination, so after the center sort no processor is
// farther than D/2 + o(n) from the closer of {original, copy} of any
// packet (Lemma 3.3); step (4) deletes the farther one and routes the
// survivor, a distance of at most D/2 + o(n).
//
// The theorem requires d >= 8 for its routing lemma (four simultaneous
// partial unshuffles need d/2 >= 4); the implementation runs at any d >= 2
// and reports the measured times honestly.
func CopySort(cfg Config, keys []int64) (Result, error) {
	if cfg.Shape.Torus {
		return Result{}, fmt.Errorf("core: CopySort is the mesh algorithm; use TorusSort for tori")
	}
	return pairedSort(cfg, keys, "CopySort")
}

// TorusSort implements Algorithm TorusSort of Section 3.3 (Theorem 3.3):
// 1-1 sorting on the d-dimensional torus in 3D/2 + o(n) steps (D = dn/2),
// making one copy of each packet. The packets are distributed over the
// entire network (a full unshuffle) with copies sent to the antipodal
// processors; by Lemma 3.4 every packet then has its original or its copy
// within D/2 + o(n) of its destination.
func TorusSort(cfg Config, keys []int64) (Result, error) {
	if !cfg.Shape.Torus {
		return Result{}, fmt.Errorf("core: TorusSort needs a torus shape; use CopySort for meshes")
	}
	return pairedSort(cfg, keys, "TorusSort")
}

// pairedSort is the shared original+copy pipeline. On the mesh the
// intermediate region is the center half C and the copy target is the
// reflection through the center; on the torus the region is the whole
// network and the copy target is the antipode. Both cases use the uniform
// rank estimator: with R region blocks, each holding an even sample of
// the doubled population, local rank i in region block j' estimates the
// (doubled) global rank as i*R + j', i.e. the key rank as (i*R + j')/2.
func pairedSort(cfg Config, keys []int64, name string) (Result, error) {
	res := Result{Report: pipeline.Report{Algorithm: name}, Config: cfg}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	if cfg.k() != 1 {
		return res, fmt.Errorf("core: %s supports only 1-1 sorting (got k=%d); use SimpleSort for k-k", name, cfg.k())
	}
	s := cfg.Shape
	d := s.Dim
	N := s.N()
	blocked := cfg.scheme()
	bs := blocked.Spec
	B := blocked.BlockCount()
	V := blocked.BlockVolume()

	// The intermediate region and the pairing map.
	var regionBlocks []int
	var opposite func(rank int) int
	if s.Torus {
		regionBlocks = allBlocks(blocked)
		opposite = s.Antipode
	} else {
		count := cfg.CenterCount
		if count == 0 {
			count = B / 2
		}
		region := grid.CenterBlocks(bs, count)
		regionBlocks = region.Blocks
		opposite = s.Reflect
	}
	R := len(regionBlocks)
	D := s.Diameter()

	runner := cfg.runner()
	originals, err := runner.InjectKeys(1, keys)
	if err != nil {
		return res, err
	}

	// The doubled unshuffle moves packets at most ~3D/4 on the mesh
	// (center region) and up to D on the torus (antipodal copies); the
	// survivor delivery is bounded by D/2 + o(n) (Lemmas 3.3/3.4).
	unshuffleBound := 3 * D / 4
	if s.Torus {
		unshuffleBound = D
	}

	var sorted, regionSorted [][]int32
	var ex pipeline.Extras       // MaxPairDist and MergeRounds, set by the phases
	var merged bool              // the merge cleanup found the mesh sorted
	pos := make([]int, 2*N)      // packet id -> current processor
	est := make([]int, 2*N)      // packet id -> estimated key rank (originals only)
	dropped := make([]bool, 2*N) // packet id -> lost the pair resolution
	prog := []pipeline.Phase{
		// Step (1): local sort inside every block.
		localSortPhase("local-sort-1", blocked, allBlocks(blocked), cfg, runner, &sorted),

		// Step (2): distribute originals evenly over the region; send
		// one copy of each packet to the opposite processor. Both
		// streams are launched together (four partial unshuffles on the
		// mesh, two full unshuffles on the torus) with classes
		// interleaved over the d dimension-order rotations.
		pipeline.Route{Name: "unshuffle-with-copies", Bound: unshuffleBound, Prepare: func(net *engine.Net) error {
			var copies []*engine.Packet
			for j := 0; j < B; j++ {
				for i, id := range sorted[j] {
					p := net.Packet(id)
					c := i % R
					slot := (j + (i/B)*B) % V
					dst := blocked.ProcAtLocal(regionBlocks[c], slot)
					p.Dst = dst
					p.Class = (2 * i) % d
					p.Tag = engine.TagOriginal
					cp := net.NewPacket(p.Key, p.Src)
					cp.Dst = opposite(dst)
					cp.Class = (2*i + 1) % d
					cp.Tag = engine.TagCopy
					cp.Pair = p.ID
					p.Pair = cp.ID
					copies = append(copies, cp)
				}
			}
			net.Inject(copies)
			return nil
		}},

		// Step (3): local sort inside every region block.
		localSortPhase("local-sort-region", blocked, regionBlocks, cfg, runner, &regionSorted),

		// Pair resolution (zero-cost check; DESIGN.md substitution 3):
		// the original's region position determines the pair's estimated
		// destination; the farther of {original, copy} is marked for
		// deletion.
		pipeline.Inspect{Name: "pair-resolution", Fn: func(net *engine.Net) error {
			for jp, ps := range regionSorted {
				for i, id := range ps {
					p := net.Packet(id)
					pos[p.ID] = p.Dst // scatterBlock left Dst = current processor
					if p.Tag == engine.TagOriginal {
						e := (i*R + jp) / 2
						if e >= N {
							e = N - 1
						}
						est[p.ID] = e
					}
				}
			}
			maxPair := 0
			for _, p := range originals {
				destProc := blocked.RankAt(est[p.ID])
				dOrig := s.Dist(pos[p.ID], destProc)
				dCopy := s.Dist(pos[p.Pair], destProc)
				if m := xmath.Min(dOrig, dCopy); m > maxPair {
					maxPair = m
				}
				if dOrig <= dCopy {
					dropped[p.Pair] = true
				} else {
					dropped[p.ID] = true
				}
			}
			ex.MaxPairDist = maxPair
			return nil
		}},

		// Step (4): delete losers and route survivors to their estimated
		// destinations (distance at most D/2 + o(n) by Lemmas 3.3/3.4).
		// Classes are assigned from the survivor's local rank in its
		// region block, as in the deterministic extended greedy scheme.
		pipeline.Route{Name: "route-survivors", Bound: D / 2, Prepare: func(net *engine.Net) error {
			for _, ps := range regionSorted {
				for i, id := range ps {
					if dropped[id] {
						continue
					}
					p := net.Packet(id)
					e := est[p.ID]
					if p.Tag == engine.TagCopy {
						e = est[p.Pair]
					}
					p.Dst = blocked.RankAt(e)
					p.Class = i % d
				}
			}
			survivors := 0
			for _, blockID := range regionBlocks {
				for pp := 0; pp < V; pp++ {
					rank := bs.ProcAt(blockID, pp)
					held := net.Held(rank)
					kept := held[:0]
					for _, id := range held {
						if dropped[id] {
							continue
						}
						kept = append(kept, id)
						survivors++
					}
					net.SetHeld(rank, kept)
				}
			}
			if survivors != N {
				return fmt.Errorf("pair resolution kept %d packets, want %d", survivors, N)
			}
			return nil
		}},

		// Step (5): odd-even block merges until sorted.
		mergeCleanupPhase(blocked, 1, cfg.Cost, runner, 0, &ex.MergeRounds, &merged),
	}
	err = runner.Run(prog...)
	res.Report = runner.Report()
	res.Algorithm, res.Extras = name, ex
	res.Sorted = merged || err == nil && isSorted(runner, blocked, 1)
	res.Delivered = res.Sorted
	if err != nil {
		return res, fmt.Errorf("core: %s: %w", name, err)
	}
	net := runner.Net()
	if !res.Sorted {
		return res, fmt.Errorf("core: %s failed to sort within %d merge rounds", name, res.MergeRounds)
	}
	if got := net.TotalPackets(); got != N {
		return res, fmt.Errorf("core: %s packet conservation violated: %d != %d", name, got, N)
	}
	res.Final = finalKeys(runner, blocked, 1, nil)
	return res, nil
}
