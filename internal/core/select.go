package core

import (
	"fmt"
	"sort"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
	"meshsort/internal/radix"
)

// Select implements the selection upper bound of Section 4.3: the packet
// of a given rank (e.g. the median, rank N/2) is delivered to the center
// processor in D + o(n) steps on the mesh. It reuses the first half of
// SimpleSort — concentrate all packets into the center region C with the
// sort-and-unshuffle (at most ~3D/4 steps), sort locally — after which
// the target packet provably sits within D/4 of the center and travels
// there directly.
//
// Identification of the exact target among the candidates pinned down by
// the local rank estimates is performed by an oracle at zero cost
// (charged to the o(n) local phases; DESIGN.md substitution 2). The
// measured quantity is packet movement, which is what Theorem 4.5's
// companion upper bound constrains. On the torus the same pipeline runs
// with the region around the designated target processor; the paper's
// bound there is (1+eps)D for large d.
//
// The report's Bound is D, Delivered certifies Value against a reference
// sort, and Candidates is the number of packets whose estimated rank fell
// within the sampling-error window of the target: the set that a fully
// local implementation would forward to the target processor in the last
// hop.
func Select(cfg Config, keys []int64, targetRank int) (pipeline.Report, error) {
	res := pipeline.Report{Algorithm: "Select", Extras: pipeline.Extras{Target: targetRank}}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	if cfg.k() != 1 {
		return res, fmt.Errorf("core: Select supports k=1 only")
	}
	s := cfg.Shape
	N := s.N()
	if targetRank < 0 || targetRank >= N {
		return res, fmt.Errorf("core: target rank %d out of range [0,%d)", targetRank, N)
	}
	d := s.Dim
	blocked := cfg.scheme()
	bs := blocked.Spec
	B := blocked.BlockCount()
	V := blocked.BlockVolume()
	region := grid.CenterBlocks(bs, B/2)
	R := region.Size()

	// The target processor: the one nearest the mesh center point.
	center := make([]int, d)
	for i := range center {
		center[i] = (s.Side - 1) / 2
	}
	target := s.Rank(center)

	runner := cfg.runner()
	if _, err := runner.InjectKeys(1, keys); err != nil {
		return res, err
	}
	D := s.Diameter()

	var sorted, centerSorted [][]int32
	var targetPkt *engine.Packet
	candidates := 0
	err := runner.Run(
		// Phases (1)-(3) of SimpleSort: concentrate into C, sort locally.
		localSortPhase("local-sort-1", blocked, allBlocks(blocked), cfg, runner, &sorted),
		pipeline.Route{Name: "unshuffle-to-center", Bound: 3 * D / 4, Prepare: func(net *engine.Net) error {
			for j := 0; j < B; j++ {
				for i, id := range sorted[j] {
					p := net.Packet(id)
					c := i % R
					slot := (j + (i/B)*B) % V
					p.Dst = blocked.ProcAtLocal(region.BlockAt(c), slot)
					p.Class = i % d
				}
			}
			return nil
		}},
		localSortPhase("local-sort-center", blocked, region.Blocks, cfg, runner, &centerSorted),

		// Identify the target packet (zero-cost check; DESIGN.md
		// substitution 3). The estimate window: local rank i in region
		// block j' pins the global rank to i*R + j' +- B*R (the
		// cross-block sampling error), so the candidate set is small;
		// the exact packet within it is resolved by the oracle.
		pipeline.Inspect{Name: "identify-target", Fn: func(net *engine.Net) error {
			window := B * R
			srt := runner.Sorter()
			all := srt.Prepare(N)
			for jp, ps := range centerSorted {
				for i, id := range ps {
					est := i*R + jp
					if est >= targetRank-window && est <= targetRank+window {
						candidates++
					}
					all = append(all, radix.Ref{Key: radix.FlipInt64(net.Packet(id).Key), ID: id})
				}
			}
			srt.Sort(all)
			targetPkt = net.Packet(all[targetRank].ID)
			return nil
		}},

		// Last hop: the target packet travels from inside C to the
		// center, at most ~D/4 + o(n).
		pipeline.Route{Name: "deliver-target", Bound: D / 4, Prepare: func(*engine.Net) error {
			targetPkt.Dst = target
			targetPkt.Class = 0
			return nil
		}},
	)
	res = runner.Report()
	res.Algorithm, res.Bound = "Select", D
	res.Target, res.Candidates = targetRank, candidates
	if err != nil {
		return res, fmt.Errorf("core: select: %w", err)
	}
	res.Value = targetPkt.Key

	// Certify against a reference sort.
	ref := append([]int64(nil), keys...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	// Tie order between equal keys cannot change the key value found at
	// any fixed rank, so comparing values is exact.
	res.Delivered = res.Value == ref[targetRank]
	return res, nil
}
