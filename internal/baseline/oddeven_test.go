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

func randomKeys(n int, seed uint64) []int64 {
	rng := xmath.NewRNG(seed)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000))
	}
	return keys
}

func TestOddEvenSorts(t *testing.T) {
	for _, s := range []grid.Shape{grid.New(1, 16), grid.New(2, 8), grid.New(3, 4), grid.New(2, 16)} {
		keys := randomKeys(s.N(), 3)
		res, err := RunOddEven(s, keys, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Sorted {
			t.Errorf("%v: not sorted", s)
		}
		if res.TotalSteps > s.N()+2 {
			t.Errorf("%v: %d rounds exceeds N", s, res.TotalSteps)
		}
	}
}

func TestOddEvenMatchesReference(t *testing.T) {
	s := grid.New(2, 8)
	sc := index.Snake(s)
	keys := randomKeys(s.N(), 9)
	net := engine.New(s)
	pkts := make([]*engine.Packet, len(keys))
	for r := range keys {
		pkts[r] = net.NewPacket(keys[r], r)
	}
	net.Inject(pkts)
	if _, err := OddEvenSnakeSort(net, sc); err != nil {
		t.Fatal(err)
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for idx := 0; idx < s.N(); idx++ {
		held := net.Held(sc.RankAt(idx))
		if len(held) != 1 {
			t.Fatalf("index %d holds %d packets", idx, len(held))
		}
		if k := net.Packet(held[0]).Key; k != want[idx] {
			t.Fatalf("index %d holds key %d, want %d", idx, k, want[idx])
		}
	}
}

func TestOddEvenQuickProperty(t *testing.T) {
	s := grid.New(2, 4)
	f := func(raw [16]int8) bool {
		keys := make([]int64, 16)
		for i := range keys {
			keys[i] = int64(raw[i])
		}
		res, err := RunOddEven(s, keys, RunOpts{})
		return err == nil && res.Sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOddEvenAlreadySortedIsFast(t *testing.T) {
	s := grid.New(1, 32)
	keys := make([]int64, 32)
	for i := range keys {
		keys[i] = int64(i)
	}
	res, err := RunOddEven(s, keys, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps > 3 {
		t.Errorf("sorted input took %d rounds", res.TotalSteps)
	}
}

func TestOddEvenWorstCaseIsLinear(t *testing.T) {
	// Reversed input on a line needs about N rounds — the Theta(N)
	// behaviour that motivates the fast algorithms.
	s := grid.New(1, 32)
	keys := make([]int64, 32)
	for i := range keys {
		keys[i] = int64(32 - i)
	}
	res, err := RunOddEven(s, keys, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps < s.N()/2 {
		t.Errorf("reversed input took only %d rounds; expected near-linear", res.TotalSteps)
	}
	if !res.Sorted {
		t.Error("not sorted")
	}
}

func TestOddEvenRejectsMultiPacket(t *testing.T) {
	s := grid.New(2, 4)
	net := engine.New(s)
	a := net.NewPacket(1, 0)
	b := net.NewPacket(2, 0)
	net.Inject([]*engine.Packet{a, b})
	if _, err := OddEvenSnakeSort(net, index.Snake(s)); err == nil {
		t.Error("accepted a processor with two packets")
	}
}

func TestRunOddEvenRejectsWrongKeyCount(t *testing.T) {
	if _, err := RunOddEven(grid.New(2, 4), make([]int64, 3), RunOpts{}); err == nil {
		t.Error("accepted wrong key count")
	}
}
