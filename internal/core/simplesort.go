package core

import (
	"fmt"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
	"meshsort/internal/xmath"
)

// SimpleSort implements Algorithm SimpleSort of Section 3.2 (Theorem
// 3.1): deterministic 1-1 (or k-k, Corollary 3.1.1) sorting on the
// d-dimensional mesh in 3D/2 + o(n) steps without copying packets.
//
//	(1) Sort the packets within each block of side b.
//	(2) Distribute the packets of each block evenly over the blocks of
//	    the center region C (half of all blocks, closest to the center):
//	    the packet of local rank i in block j moves to position
//	    (j + floor(i/B)*B) mod V of center block i mod |C|. No packet
//	    travels farther than ~3D/4, and the routing reduces to partial
//	    unshuffle permutations handled distance-optimally by the extended
//	    greedy scheme.
//	(3) Sort the packets within each center block. Because every center
//	    block now holds an even sample of the whole input, local rank i
//	    in center block j' pins the global rank to i*|C| + j'.
//	(4) Route every packet to the processor indexed by its estimated
//	    global rank — again at most ~3D/4 away.
//	(5) Clean up with odd-even merge rounds between adjacent blocks
//	    (Lemma 3.1 guarantees everything is within one block).
//
// keys holds k*N keys; keys[r*k+t] starts at the processor with canonical
// rank r. The returned Result carries per-phase statistics; Result.Sorted
// certifies the outcome.
func SimpleSort(cfg Config, keys []int64) (Result, error) {
	return centerSort(cfg, keys, "SimpleSort")
}

// centerSort is the shared implementation of SimpleSort and its
// small-center variant (Corollary 3.1.2): the center region size comes
// from the configuration. The five steps of Theorem 3.1 are expressed as
// a declarative phase program executed by the pipeline runner; the
// program and all of its scratch are cached in the runner's stash
// (centerStash), so a warm re-run of an equal-keyed configuration
// compiles nothing and allocates nothing.
func centerSort(cfg Config, keys []int64, name string) (Result, error) {
	res := Result{Report: pipeline.Report{Algorithm: name}, Config: cfg}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	k := cfg.k()
	kN := k * cfg.Shape.N()

	st, runner := centerState(cfg)
	if _, err := runner.InjectKeys(k, keys); err != nil {
		return res, err
	}
	if st.prog == nil {
		st.compile(cfg, runner)
	}
	st.mergeRounds, st.sortedFlag = 0, false
	err := runner.Run(st.prog...)
	res.Report = runner.Report()
	res.Algorithm, res.MergeRounds = name, st.mergeRounds
	res.Sorted = st.sortedFlag || err == nil && st.scan.isSorted()
	res.Delivered = res.Sorted
	if err != nil {
		return res, fmt.Errorf("core: %s: %w", name, err)
	}
	net := runner.Net()
	if !res.Sorted {
		return res, fmt.Errorf("core: %s failed to sort within %d merge rounds", name, res.MergeRounds)
	}
	if got := net.TotalPackets(); got != kN {
		return res, fmt.Errorf("core: %s packet conservation violated: %d != %d", name, got, kN)
	}
	st.final = st.scan.finalKeys(st.final)
	res.Final = st.final
	return res, nil
}

// compile builds the five-phase program of Theorem 3.1 against one
// runner. Every configuration value the closures capture is part of the
// stash key, so a key-matched warm run replays the program verbatim;
// per-run state (id rows, merge counters) lives in the stash and is
// reset by centerSort before each run.
func (st *centerStash) compile(cfg Config, runner *pipeline.Runner) {
	s := cfg.Shape
	k := cfg.k()
	d := s.Dim
	blocked := st.blocked
	region := st.region
	B := blocked.BlockCount()
	V := blocked.BlockVolume()
	R := region.Size()
	kN := k * s.N()

	// Both routing phases of the center scheme move packets at most
	// ~3D/4 (Theorem 3.1's per-phase bound, up to the o(n) block terms).
	// With k > 1 packets per processor (Corollary 3.1.1, k <= d/4) the
	// distance bound is unchanged but the o(n) block terms scale with k:
	// charge one block diameter per extra packet layer. k = 1 keeps the
	// exact Theorem 3.1 value, so 1-1 runs are bit-compatible.
	routeBound := 3 * s.Diameter() / 4
	if k > 1 {
		routeBound += k * cfg.BlockSide * d / 2
	}

	st.scan = newSortScan(runner, blocked, k)

	st.prog = []pipeline.Phase{
		// Step (1): local sort inside every block.
		localSortPhase("local-sort-1", blocked, st.blocks, cfg, runner, &st.rows1),

		// Step (2): distribute every block's packets evenly over C.
		pipeline.Route{Name: "unshuffle-to-center", Bound: routeBound, Prepare: func(net *engine.Net) error {
			for j := 0; j < B; j++ {
				ps := st.rows1[j] // allBlocks lists blocks in outer order, so index j is outer position j
				for i, id := range ps {
					p := net.Packet(id)
					c := i % R
					destBlock := region.BlockAt(c)
					slot := (j + (i/B)*B) % V
					p.Dst = blocked.ProcAtLocal(destBlock, slot)
					p.Class = i % d
				}
			}
			return nil
		}},

		// Step (3): local sort inside every center block.
		localSortPhase("local-sort-center", blocked, region.Blocks, cfg, runner, &st.rowsC),

		// Step (4): send every packet to its estimated destination.
		// Center block j' holds (about) kN/R packets forming an even
		// sample of the input, so local rank i estimates the global rank
		// as i*R + j' — exact and collision-free when R = B/2 (it
		// expands to the paper's j' + (i mod Q)*R + (i/Q)*V with
		// Q = 2kV/B). With AltEstimator the bias-corrected variant is
		// used instead (see Config.AltEstimator).
		pipeline.Route{Name: "route-to-destination", Bound: routeBound, Prepare: func(net *engine.Net) error {
			for jp, ps := range st.rowsC {
				for i, id := range ps {
					p := net.Packet(id)
					var est int
					if cfg.AltEstimator {
						est = (i/B)*R*B + i%B + jp*B
					} else {
						est = i*R + jp
					}
					if est >= kN {
						est = kN - 1
					}
					p.Dst = blocked.RankAt(est / k)
					p.Class = i % d
				}
			}
			return nil
		}},

		// Step (5): odd-even block merges until sorted.
		mergeCleanupPhase(blocked, k, cfg.Cost, runner, 0, &st.mergeRounds, &st.sortedFlag),
	}
}

// RandomKeys returns k*N pseudo-random keys for a shape, suitable as
// SimpleSort input.
func RandomKeys(s grid.Shape, k int, seed uint64) []int64 {
	rng := xmath.NewRNG(seed)
	keys := make([]int64, k*s.N())
	for i := range keys {
		keys[i] = int64(rng.Uint64() >> 1)
	}
	return keys
}
