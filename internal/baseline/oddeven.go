// Package baseline implements the comparison algorithms the paper's
// results are measured against: odd-even transposition sort along the
// snake (a slow but exactly-analyzable in-mesh sorter, used both as a
// baseline and as the ground truth that validates the oracle phases of
// the fast algorithms), and plain greedy permutation routing. The
// previous-best sorting baseline (FullSort, 2D + o(n)) lives in
// internal/core because it shares the sort-and-unshuffle machinery.
package baseline

import (
	"fmt"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/index"
	"meshsort/internal/pipeline"
)

// OddEvenResult reports an odd-even transposition sort run.
type OddEvenResult struct {
	Steps    int  // one step per transposition round
	Rounds   int  // rounds executed (== Steps)
	Sorted   bool // certification of the outcome
	Diameter int
}

// OddEvenSnakeSort sorts one key per processor by odd-even transposition
// along the snake-like indexing: in even rounds the processor pairs with
// snake indices (2i, 2i+1) compare-exchange their keys, in odd rounds the
// pairs (2i+1, 2i+2). Consecutive snake indices are physically adjacent,
// so every round is one communication step. The algorithm needs at most N
// rounds (Theta(N) — far slower than any of the paper's algorithms, which
// is the point of the comparison) and stops as soon as a full even+odd
// double round performs no exchange.
//
// The network is modified in place: afterwards the held packets are in
// snake order. The function charges the rounds to the network's clock.
func OddEvenSnakeSort(net *engine.Net, sc *index.Scheme) (OddEvenResult, error) {
	s := net.Shape
	N := s.N()
	res := OddEvenResult{Diameter: s.Diameter()}
	// Snapshot one packet per processor, addressed by snake index.
	ps := make([]*engine.Packet, N)
	for idx := 0; idx < N; idx++ {
		rank := sc.RankAt(idx)
		held := net.Held(rank)
		if len(held) != 1 {
			return res, fmt.Errorf("baseline: odd-even sort needs exactly one packet per processor, rank %d has %d", rank, len(held))
		}
		ps[idx] = net.Packet(held[0])
	}
	less := func(a, b *engine.Packet) bool {
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.ID < b.ID
	}
	for round := 0; round < N+2; round++ {
		swapped := false
		start := round % 2
		for i := start; i+1 < N; i += 2 {
			if less(ps[i+1], ps[i]) {
				ps[i], ps[i+1] = ps[i+1], ps[i]
				swapped = true
			}
		}
		res.Rounds++
		res.Steps++
		net.AdvanceClock(1)
		if !swapped && round > 0 {
			// One quiet round after at least one pass of the other
			// parity: odd-even transposition is sorted once a double
			// round is quiet; check and exit.
			quiet := true
			for i := 1 - start; i+1 < N; i += 2 {
				if less(ps[i+1], ps[i]) {
					quiet = false
					break
				}
			}
			if quiet {
				break
			}
		}
	}
	// Write back: packet at snake index idx belongs at that processor,
	// reusing each held queue's single-slot storage.
	for idx := 0; idx < N; idx++ {
		rank := sc.RankAt(idx)
		ps[idx].Dst = rank
		net.SetHeld(rank, append(net.Held(rank)[:0], int32(ps[idx].ID)))
	}
	res.Sorted = true
	for i := 0; i+1 < N; i++ {
		if less(ps[i+1], ps[i]) {
			res.Sorted = false
			break
		}
	}
	return res, nil
}

// RunOddEven builds a network from keys (one per processor, canonical
// rank order) and sorts it with OddEvenSnakeSort under the plain snake
// scheme, as a one-phase pipeline program.
func RunOddEven(s grid.Shape, keys []int64, opts RunOpts) (OddEvenResult, error) {
	var res OddEvenResult
	if err := s.Validate(); err != nil {
		return res, fmt.Errorf("baseline: %w", err)
	}
	runner := opts.runner(s)
	if _, err := runner.InjectKeys(1, keys); err != nil {
		return res, err
	}
	err := runner.Run(pipeline.Local{Name: "odd-even", Kind: "shear", Apply: func(net *engine.Net) (int, error) {
		r, err := OddEvenSnakeSort(net, index.Snake(s))
		res = r
		return 0, err
	}})
	return res, err
}
