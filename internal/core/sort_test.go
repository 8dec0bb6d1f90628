package core

import (
	"sort"
	"testing"
	"testing/quick"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
)

// sortConfigs are small instances with the paper's alpha >= 2/3 shape
// (B^2 <= 2V), where the rank estimate is within one block and cleanup
// stays short.
var sortConfigs = []Config{
	{Shape: grid.New(2, 8), BlockSide: 4},
	{Shape: grid.New(2, 16), BlockSide: 8},
	{Shape: grid.New(3, 8), BlockSide: 4},
	{Shape: grid.New(3, 12), BlockSide: 6},
	{Shape: grid.New(4, 8), BlockSide: 4},
}

var torusConfigs = []Config{
	{Shape: grid.NewTorus(2, 8), BlockSide: 4},
	{Shape: grid.NewTorus(2, 16), BlockSide: 8},
	{Shape: grid.NewTorus(3, 8), BlockSide: 4},
	{Shape: grid.NewTorus(4, 8), BlockSide: 4},
}

// checkSorted verifies Result.Final equals the stable-sorted input.
func checkSorted(t *testing.T, name string, keys []int64, res Result) {
	t.Helper()
	if !res.Sorted {
		t.Errorf("%s: result not marked sorted", name)
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(res.Final) != len(want) {
		t.Fatalf("%s: final has %d keys, want %d", name, len(res.Final), len(want))
	}
	for i := range want {
		if res.Final[i] != want[i] {
			t.Fatalf("%s: final[%d] = %d, want %d", name, i, res.Final[i], want[i])
		}
	}
}

type sortFunc func(Config, []int64) (Result, error)

func runSortGrid(t *testing.T, name string, fn sortFunc, cfgs []Config) {
	for _, cfg := range cfgs {
		cfg.Seed = 42
		keys := RandomKeys(cfg.Shape, cfg.k(), 7)
		res, err := fn(cfg, keys)
		if err != nil {
			t.Fatalf("%s %v b=%d: %v", name, cfg.Shape, cfg.BlockSide, err)
		}
		checkSorted(t, name, keys, res)
		if res.MaxQueue > 8*cfg.k()*cfg.Shape.Dim {
			t.Errorf("%s %v: max queue %d violates the O(1)-per-processor model", name, cfg.Shape, res.MaxQueue)
		}
	}
}

func TestSimpleSortSortsRandom(t *testing.T) { runSortGrid(t, "SimpleSort", SimpleSort, sortConfigs) }
func TestCopySortSortsRandom(t *testing.T)   { runSortGrid(t, "CopySort", CopySort, sortConfigs) }
func TestTorusSortSortsRandom(t *testing.T)  { runSortGrid(t, "TorusSort", TorusSort, torusConfigs) }
func TestFullSortSortsRandom(t *testing.T)   { runSortGrid(t, "FullSort", FullSort, sortConfigs) }

func TestSimpleSortOnTorus(t *testing.T) {
	// SimpleSort also runs on tori (the center region is still valid).
	runSortGrid(t, "SimpleSort/torus", SimpleSort, torusConfigs[:2])
}

// adversarialInputs exercises degenerate key distributions.
func adversarialInputs(s grid.Shape, k int) map[string][]int64 {
	n := k * s.N()
	sorted := make([]int64, n)
	reversed := make([]int64, n)
	equal := make([]int64, n)
	twoVals := make([]int64, n)
	organ := make([]int64, n)
	for i := 0; i < n; i++ {
		sorted[i] = int64(i)
		reversed[i] = int64(n - i)
		equal[i] = 7
		twoVals[i] = int64(i % 2)
		if i < n/2 {
			organ[i] = int64(i)
		} else {
			organ[i] = int64(n - i)
		}
	}
	return map[string][]int64{
		"sorted": sorted, "reversed": reversed, "all-equal": equal,
		"two-values": twoVals, "organ-pipe": organ,
	}
}

func TestSortsAdversarialInputs(t *testing.T) {
	cfg := Config{Shape: grid.New(3, 8), BlockSide: 4, Seed: 1}
	tcfg := Config{Shape: grid.NewTorus(3, 8), BlockSide: 4, Seed: 1}
	for name, keys := range adversarialInputs(cfg.Shape, 1) {
		for _, alg := range []struct {
			label string
			fn    sortFunc
			cfg   Config
		}{
			{"SimpleSort", SimpleSort, cfg},
			{"CopySort", CopySort, cfg},
			{"FullSort", FullSort, cfg},
			{"TorusSort", TorusSort, tcfg},
		} {
			res, err := alg.fn(alg.cfg, keys)
			if err != nil {
				t.Fatalf("%s on %s: %v", alg.label, name, err)
			}
			checkSorted(t, alg.label+"/"+name, keys, res)
		}
	}
}

func TestSimpleSortKK(t *testing.T) {
	// Corollary 3.1.1: k-k sorting. k=2 and k=3 on meshes.
	for _, k := range []int{2, 3} {
		cfg := Config{Shape: grid.New(3, 8), BlockSide: 4, K: k, Seed: 2}
		keys := RandomKeys(cfg.Shape, k, uint64(k))
		res, err := SimpleSort(cfg, keys)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkSorted(t, "SimpleSort-kk", keys, res)
	}
}

func TestSimpleSortQuickProperty(t *testing.T) {
	// Property: SimpleSort sorts any key assignment (duplicates, signs).
	cfg := Config{Shape: grid.New(2, 8), BlockSide: 4}
	f := func(raw []int16, seed uint64) bool {
		keys := make([]int64, cfg.Shape.N())
		for i := range keys {
			if len(raw) > 0 {
				keys[i] = int64(raw[i%len(raw)])
			}
		}
		cfg.Seed = seed
		res, err := SimpleSort(cfg, keys)
		if err != nil || !res.Sorted {
			return false
		}
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if res.Final[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMergeRoundsSmallForGoodAlpha(t *testing.T) {
	// With B^2 <= 2V the destination estimate is within one block
	// (Lemma 3.1), so cleanup needs very few merge rounds.
	for _, cfg := range sortConfigs {
		bs := grid.Blocks(cfg.Shape, cfg.BlockSide)
		if bs.Count()*bs.Count() > 2*bs.Volume() {
			t.Fatalf("test config %v b=%d violates B^2 <= 2V", cfg.Shape, cfg.BlockSide)
		}
		cfg.Seed = 3
		res, err := SimpleSort(cfg, RandomKeys(cfg.Shape, 1, 11))
		if err != nil {
			t.Fatal(err)
		}
		if res.MergeRounds > 3 {
			t.Errorf("%v b=%d: %d merge rounds, want <= 3", cfg.Shape, cfg.BlockSide, res.MergeRounds)
		}
	}
}

func TestRouteRatioShapes(t *testing.T) {
	// The headline comparison (loose envelopes; exact trends live in the
	// experiment harness): routing steps normalized by D must order
	// SimpleSort below FullSort, and stay within generous caps.
	//
	// The center region is only meaningful with at least 4 blocks per
	// dimension (with 2, every block is equidistant from the center and
	// SimpleSort degenerates into FullSort), so this test uses m = 4.
	cfg := Config{Shape: grid.New(3, 32), BlockSide: 8, Seed: 4}
	keys := RandomKeys(cfg.Shape, 1, 13)
	simple, err := SimpleSort(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	full, err := FullSort(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	if simple.RouteRatio() >= full.RouteRatio() {
		t.Errorf("SimpleSort ratio %.3f not below FullSort ratio %.3f", simple.RouteRatio(), full.RouteRatio())
	}
	if simple.RouteRatio() > 1.8 {
		t.Errorf("SimpleSort ratio %.3f far above 3/2", simple.RouteRatio())
	}
	if full.RouteRatio() > 2.4 {
		t.Errorf("FullSort ratio %.3f far above 2", full.RouteRatio())
	}
}

func TestPairDistBound(t *testing.T) {
	// Lemmas 3.3/3.4: after the center sort, min(dist to original, dist
	// to copy) <= D/2 + o(n). Allow a block-diameter of finite-size
	// slack.
	for _, tc := range []struct {
		cfg Config
		fn  sortFunc
	}{
		{Config{Shape: grid.New(3, 8), BlockSide: 4}, CopySort},
		{Config{Shape: grid.New(3, 16), BlockSide: 8}, CopySort},
		{Config{Shape: grid.NewTorus(3, 8), BlockSide: 4}, TorusSort},
		{Config{Shape: grid.NewTorus(3, 16), BlockSide: 8}, TorusSort},
	} {
		res, err := tc.fn(tc.cfg, RandomKeys(tc.cfg.Shape, 1, 5))
		if err != nil {
			t.Fatal(err)
		}
		D := tc.cfg.Shape.Diameter()
		slack := 2 * tc.cfg.Shape.Dim * tc.cfg.BlockSide
		if res.MaxPairDist > D/2+slack {
			t.Errorf("%v: MaxPairDist %d > D/2 + slack = %d", tc.cfg.Shape, res.MaxPairDist, D/2+slack)
		}
	}
}

func TestCopySortRejectsTorusAndKK(t *testing.T) {
	if _, err := CopySort(Config{Shape: grid.NewTorus(2, 8), BlockSide: 4}, make([]int64, 64)); err == nil {
		t.Error("CopySort accepted a torus")
	}
	if _, err := TorusSort(Config{Shape: grid.New(2, 8), BlockSide: 4}, make([]int64, 64)); err == nil {
		t.Error("TorusSort accepted a mesh")
	}
	if _, err := CopySort(Config{Shape: grid.New(2, 8), BlockSide: 4, K: 2}, make([]int64, 128)); err == nil {
		t.Error("CopySort accepted k=2")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Shape: grid.New(2, 8), BlockSide: 3},                 // does not divide
		{Shape: grid.New(2, 8), BlockSide: 8},                 // single block
		{Shape: grid.New(2, 9), BlockSide: 3},                 // odd block count
		{Shape: grid.New(2, 8), BlockSide: 2},                 // V=4 < B=16
		{Shape: grid.New(2, 8), BlockSide: 4, K: -1},          // negative k
		{Shape: grid.New(2, 8), BlockSide: 4, CenterCount: 5}, // > B
		{Shape: grid.Shape{Dim: 0, Side: 8}, BlockSide: 4},    // degenerate dim
		{Shape: grid.Shape{Dim: 2, Side: 1}, BlockSide: 1},    // degenerate side
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config", i)
		}
	}
	good := Config{Shape: grid.New(2, 8), BlockSide: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestWrongKeyCount(t *testing.T) {
	cfg := Config{Shape: grid.New(2, 8), BlockSide: 4}
	if _, err := SimpleSort(cfg, make([]int64, 3)); err == nil {
		t.Error("SimpleSort accepted wrong key count")
	}
}

func TestCenterCountVariant(t *testing.T) {
	// Corollary 3.1.2: a smaller center region still sorts; a larger
	// region (FullSort) too. Sweep the region size.
	cfg := Config{Shape: grid.New(3, 8), BlockSide: 4, Seed: 9}
	keys := RandomKeys(cfg.Shape, 1, 21)
	for _, count := range []int{2, 4, 6, 8} {
		cfg.CenterCount = count
		res, err := SimpleSort(cfg, keys)
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		checkSorted(t, "SimpleSort-region", keys, res)
	}
}

func TestResultRatios(t *testing.T) {
	cfg := Config{Shape: grid.New(2, 8), BlockSide: 4, Seed: 1}
	res, err := SimpleSort(cfg, RandomKeys(cfg.Shape, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Diameter() != 14 {
		t.Error("Diameter accessor wrong")
	}
	if res.RouteRatio() <= 0 || res.TotalRatio() < res.RouteRatio() {
		t.Error("ratio accessors inconsistent")
	}
	if res.TotalSteps != res.RouteSteps+res.OracleSteps {
		t.Errorf("clock %d != route %d + oracle %d", res.TotalSteps, res.RouteSteps, res.OracleSteps)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Shape: grid.New(3, 8), BlockSide: 4, Seed: 5}
	keys := RandomKeys(cfg.Shape, 1, 17)
	r1, err1 := SimpleSort(cfg, keys)
	r2, err2 := SimpleSort(cfg, keys)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.TotalSteps != r2.TotalSteps || r1.RouteSteps != r2.RouteSteps || r1.MaxQueue != r2.MaxQueue {
		t.Error("SimpleSort is not deterministic")
	}
	// And independent of worker count.
	pool := engine.NewPool(2)
	defer pool.Close()
	cfg.Pool = pool
	r3, err := SimpleSort(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	if r3.TotalSteps != r1.TotalSteps || r3.MaxQueue != r1.MaxQueue {
		t.Error("results depend on worker count")
	}
}

func TestScatterBalance(t *testing.T) {
	// scatterBlock must spread uneven packet counts within one of the
	// average per processor.
	s := grid.New(2, 8)
	cfg := Config{Shape: s, BlockSide: 4}
	blocked := cfg.scheme()
	net := engine.New(s)
	for _, total := range []int{1, 5, 16, 17, 31, 32, 33} {
		pkts := make([]int32, total)
		for i := range pkts {
			pkts[i] = int32(net.NewPacket(int64(i), 0).ID)
		}
		scatterBlock(net, blocked, 0, pkts)
		min, max := total, 0
		V := blocked.BlockVolume()
		for pos := 0; pos < V; pos++ {
			c := len(net.Held(blocked.ProcAtLocal(0, pos)))
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Errorf("total=%d: scatter imbalance %d..%d", total, min, max)
		}
		// Clean up for the next round.
		for pos := 0; pos < V; pos++ {
			net.ClearHeld(blocked.ProcAtLocal(0, pos))
		}
	}
}

func TestIsSortedDetectsDisorder(t *testing.T) {
	s := grid.New(2, 8)
	cfg := Config{Shape: s, BlockSide: 4}
	blocked := cfg.scheme()
	runner := pipeline.New(pipeline.Config{Shape: s})
	net := runner.Net()
	// Place keys equal to the sort index: sorted.
	for idx := 0; idx < s.N(); idx++ {
		p := net.NewPacket(int64(idx), 0)
		rank := blocked.RankAt(idx)
		p.Dst = rank
		net.SetHeld(rank, []int32{int32(p.ID)})
	}
	if !isSorted(runner, blocked, 1) {
		t.Fatal("sorted state not recognized")
	}
	// Swap two keys.
	a, b := blocked.RankAt(3), blocked.RankAt(40)
	pa, pb := net.Packet(net.Held(a)[0]), net.Packet(net.Held(b)[0])
	pa.Key, pb.Key = pb.Key, pa.Key
	if isSorted(runner, blocked, 1) {
		t.Fatal("disorder not detected")
	}
}
