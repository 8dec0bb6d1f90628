package core

import (
	"fmt"
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
)

// phaseFingerprint renders everything deterministic about a run into one
// comparable string: the simulated clocks, the cleanup rounds, and every
// phase's simulation-visible statistics. Wall-clock throughput fields are
// deliberately absent — they are the only part of a result allowed to
// vary between runs.
func phaseFingerprint(res Result) string {
	s := fmt.Sprintf("total=%d route=%d oracle=%d rounds=%d maxq=%d stranded=%d\n",
		res.TotalSteps, res.RouteSteps, res.OracleSteps, res.MergeRounds, res.MaxQueue, res.Stranded)
	for _, ph := range res.Phases {
		s += fmt.Sprintf("%s/%s steps=%d dist=%d over=%d maxq=%d hops=%d stranded=%d\n",
			ph.Name, ph.Kind, ph.Steps, ph.MaxDist, ph.MaxOvershoot, ph.MaxQueue, ph.Hops, ph.Stranded)
	}
	return s
}

// TestLocalPhasesDeterministicAcrossWorkers pins the determinism contract
// of the parallel local phases and the engine step kernel: a full sort
// run must produce byte-identical final keys and phase statistics at
// every pool size. Pool size 1 sweeps every rank inline, sizes 2 and 7
// split the ranks into per-worker ranges with outboxes across the cuts,
// with block work fanned across the pool by work-stealing — so the test
// certifies both that the engine is step-equivalent at every worker
// count and that no local phase leaks worker-count or visit-order
// dependence into its output. ShardShift is forced to 6 (shards of 64)
// so the n=8 mesh (N=512) is cut into several ranges. Each configuration
// runs twice on a warm runner, so the steady-state re-run path is held
// to the same byte-identical standard as the cold one.
func TestLocalPhasesDeterministicAcrossWorkers(t *testing.T) {
	shape := grid.New(3, 8)
	keys := RandomKeys(shape, 1, 23)
	algs := []struct {
		name string
		run  func(Config, []int64) (Result, error)
	}{
		{"SimpleSort", SimpleSort},
		{"CopySort", CopySort},
	}
	for _, alg := range algs {
		t.Run(alg.name, func(t *testing.T) {
			var wantFinal []int64
			var wantPrint string
			for _, workers := range []int{1, 2, 7} {
				pool := engine.NewPool(workers)
				runner := pipeline.New(pipeline.Config{Shape: shape, Pool: pool})
				cfg := Config{
					Shape: shape, BlockSide: 4, Seed: 5,
					ShardShift: 6, Pool: pool, Runner: runner,
				}
				for pass := 0; pass < 2; pass++ {
					res, err := alg.run(cfg, keys)
					if err != nil {
						t.Fatalf("workers=%d pass=%d: %v", workers, pass, err)
					}
					if !res.Sorted {
						t.Fatalf("workers=%d pass=%d: not sorted", workers, pass)
					}
					// Snapshot immediately: on a warm runner Final and
					// Phases alias runner-owned storage.
					final := append([]int64(nil), res.Final...)
					print := phaseFingerprint(res)
					if wantFinal == nil {
						wantFinal, wantPrint = final, print
						continue
					}
					if len(final) != len(wantFinal) {
						t.Fatalf("workers=%d pass=%d: %d final keys, want %d", workers, pass, len(final), len(wantFinal))
					}
					for i := range final {
						if final[i] != wantFinal[i] {
							t.Fatalf("workers=%d pass=%d: final key %d = %d, want %d", workers, pass, i, final[i], wantFinal[i])
						}
					}
					if print != wantPrint {
						t.Errorf("workers=%d pass=%d: phase stats diverge:\ngot:\n%s\nwant:\n%s", workers, pass, print, wantPrint)
					}
				}
				pool.Close()
			}
		})
	}
}

// TestWarmSimpleSortDoesNotAllocate is the steady-state guard for the
// full sorting pipeline: once a runner has executed a configuration, a
// re-run of the same configuration — injection, local sorts, both
// routing phases, the cleanup loop, the sortedness certificate, and
// final-key extraction — performs zero heap allocations. Covers both
// RunBlocks dispatch modes: a 1-worker pool (serial, the inline engine
// sweep) and a 2-worker pool (parallel work-stealing dispatch); k = 1 and
// the k-k load of Corollary 3.1.1 (k = 2). Runs alternate between two
// key sets, as a benchmark that rotates its inputs does.
func TestWarmSimpleSortDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	shape := grid.New(3, 16)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool := engine.NewPool(workers)
			defer pool.Close()
			for _, k := range []int{1, 2} {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					keys := [2][]int64{RandomKeys(shape, k, 7), RandomKeys(shape, k, 8)}
					runner := pipeline.New(pipeline.Config{Shape: shape, Pool: pool})
					cfg := Config{Shape: shape, BlockSide: 4, K: k, Seed: 1, Pool: pool, Runner: runner}
					runs := 0
					run := func() {
						res, err := SimpleSort(cfg, keys[runs%2])
						runs++
						if err != nil {
							t.Fatal(err)
						}
						if !res.Sorted {
							t.Fatal("SimpleSort did not sort")
						}
					}
					run() // warm-up: grow the runner scratch, arena, and queues
					run()
					if avg := testing.AllocsPerRun(10, run); avg != 0 {
						t.Fatalf("warm SimpleSort allocated %.1f times per run, want 0", avg)
					}
				})
			}
		})
	}
}
