package baseline

import (
	"sort"
	"testing"
	"testing/quick"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/index"
	"meshsort/internal/xmath"
)

func setupBlocks(s grid.Shape, b int, keys []int64) (*engine.Net, *index.Blocked) {
	net := engine.New(s)
	bl := index.BlockedSnake(s, b)
	pkts := make([]*engine.Packet, len(keys))
	for r := range keys {
		pkts[r] = net.NewPacket(keys[r], r)
	}
	net.Inject(pkts)
	return net, bl
}

func allBlockIDs(bl *index.Blocked) []int {
	out := make([]int, bl.BlockCount())
	for i := range out {
		out[i] = bl.BlockAtOrder(i)
	}
	return out
}

func checkBlocksSnakeSorted(t *testing.T, net *engine.Net, bl *index.Blocked) {
	t.Helper()
	for _, id := range allBlockIDs(bl) {
		var prev *engine.Packet
		for l := 0; l < bl.BlockVolume(); l++ {
			held := net.Held(bl.ProcAtLocal(id, l))
			if len(held) != 1 {
				t.Fatalf("block %d local %d holds %d packets", id, l, len(held))
			}
			p := net.Packet(held[0])
			if prev != nil && (p.Key < prev.Key || (p.Key == prev.Key && p.ID < prev.ID)) {
				t.Fatalf("block %d not snake-sorted at local %d", id, l)
			}
			prev = p
		}
	}
}

func TestShearSortSortsBlocks(t *testing.T) {
	for _, tc := range []struct {
		s grid.Shape
		b int
	}{
		{grid.New(2, 8), 4}, {grid.New(2, 16), 8}, {grid.New(3, 8), 4},
		{grid.New(4, 8), 4}, {grid.NewTorus(3, 8), 4},
	} {
		rng := xmath.NewRNG(9)
		keys := make([]int64, tc.s.N())
		for i := range keys {
			keys[i] = int64(rng.Intn(1000))
		}
		net, bl := setupBlocks(tc.s, tc.b, keys)
		st, err := ShearSortBlocks(net, bl, allBlockIDs(bl))
		if err != nil {
			t.Fatal(err)
		}
		checkBlocksSnakeSorted(t, net, bl)
		t.Logf("%v b=%d: %d steps, %d iterations, %d fallback rounds", tc.s, tc.b, st.Steps, st.Iterations, st.Fallback)
		if st.Steps <= 0 {
			t.Error("no cost charged")
		}
		if net.Clock() != st.Steps {
			t.Error("clock not advanced by the parallel cost")
		}
	}
}

func TestShearSortZeroOnePrinciple(t *testing.T) {
	// Random 0-1 inputs (the 0-1 principle's hard class) plus structured
	// patterns on a single 3-d block.
	s := grid.New(3, 4)
	f := func(bits uint64) bool {
		keys := make([]int64, s.N())
		for i := range keys {
			keys[i] = int64((bits >> uint(i%64)) & 1)
		}
		net, bl := setupBlocks(s, 4, keys)
		if _, err := ShearSortBlocks(net, bl, allBlockIDs(bl)); err != nil {
			return false
		}
		var prev int64 = -1
		for l := 0; l < bl.BlockVolume(); l++ {
			k := net.Packet(net.Held(bl.ProcAtLocal(0, l))[0]).Key
			if k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestShearSortAdversarial(t *testing.T) {
	s := grid.New(3, 8)
	n := s.N()
	patterns := map[string]func(i int) int64{
		"reversed":  func(i int) int64 { return int64(n - i) },
		"all-equal": func(i int) int64 { return 5 },
		"organ":     func(i int) int64 { return int64(xmath.Min(i, n-i)) },
		"mod7":      func(i int) int64 { return int64(i % 7) },
	}
	for name, gen := range patterns {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = gen(i)
		}
		net, bl := setupBlocks(s, 4, keys)
		if _, err := ShearSortBlocks(net, bl, allBlockIDs(bl)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkBlocksSnakeSorted(t, net, bl)
		_ = name
	}
}

func TestShearSortPreservesMultiset(t *testing.T) {
	s := grid.New(2, 8)
	rng := xmath.NewRNG(3)
	keys := make([]int64, s.N())
	for i := range keys {
		keys[i] = int64(rng.Intn(50))
	}
	net, bl := setupBlocks(s, 4, keys)
	if _, err := ShearSortBlocks(net, bl, allBlockIDs(bl)); err != nil {
		t.Fatal(err)
	}
	var got []int64
	net.ForEachHeld(func(rank int, p *engine.Packet) { got = append(got, p.Key) })
	want := append([]int64(nil), keys...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("multiset changed")
		}
	}
}

func TestShearSort2DMatchesClassic(t *testing.T) {
	// On one 2-d block the scheme must be classical shearsort: columns
	// ascending, rows alternating; check it needs no fallback and at
	// most log2(V)+2 iterations on random input.
	s := grid.New(2, 8)
	rng := xmath.NewRNG(12)
	keys := make([]int64, s.N())
	for i := range keys {
		keys[i] = int64(rng.Intn(1 << 20))
	}
	net, bl := setupBlocks(s, 8, keys)
	st, err := ShearSortBlocks(net, bl, allBlockIDs(bl))
	if err != nil {
		t.Fatal(err)
	}
	if st.Fallback != 0 {
		t.Errorf("2-d shearsort needed %d fallback rounds", st.Fallback)
	}
	if st.Iterations > log2ceil(64)+2 {
		t.Errorf("2-d shearsort used %d iterations", st.Iterations)
	}
	checkBlocksSnakeSorted(t, net, bl)
}

func BenchmarkShearSortBlocks(b *testing.B) {
	s := grid.New(3, 16)
	rng := xmath.NewRNG(1)
	keys := make([]int64, s.N())
	for i := range keys {
		keys[i] = int64(rng.Uint64() >> 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, bl := setupBlocks(s, 4, keys)
		b.StartTimer()
		if _, err := ShearSortBlocks(net, bl, allBlockIDs(bl)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOddEvenSnakeSort(b *testing.B) {
	s := grid.New(2, 16)
	keys := randomKeys(s.N(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOddEven(s, keys, RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDegenerateShapeErrors pins the validation boundary: a hand-built
// degenerate shape is rejected with an error, never a silent mis-stride
// or an engine panic.
func TestDegenerateShapeErrors(t *testing.T) {
	for _, s := range []grid.Shape{{Dim: 0, Side: 8}, {Dim: 2, Side: 1}} {
		if _, err := ShearSort(s, nil, RunOpts{}); err == nil {
			t.Errorf("ShearSort accepted degenerate shape %+v", s)
		}
		if _, err := RunOddEven(s, nil, RunOpts{}); err == nil {
			t.Errorf("RunOddEven accepted degenerate shape %+v", s)
		}
	}
}
