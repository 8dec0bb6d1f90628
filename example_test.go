package meshsort_test

import (
	"fmt"

	"meshsort"
)

// ExampleSimpleSort sorts one key per processor on a 3-dimensional mesh
// and reports the routing cost relative to the diameter.
func ExampleSimpleSort() {
	cfg := meshsort.Config{Shape: meshsort.Mesh(3, 8), BlockSide: 4, Seed: 1}
	keys := meshsort.RandomKeys(cfg.Shape, 1, 42)
	res, err := meshsort.SimpleSort(cfg, keys)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sorted=%v within-bound=%v\n", res.Sorted, res.RouteRatio() < 1.5+0.5)
	// Output: sorted=true within-bound=true
}

// ExampleTwoPhaseRoute routes a worst-case permutation within the
// D + n + o(n) bound of Theorem 5.1.
func ExampleTwoPhaseRoute() {
	shape := meshsort.Mesh(3, 8)
	res, err := meshsort.TwoPhaseRoute(
		meshsort.RouteConfig{Shape: shape, BlockSide: 4, Seed: 1},
		meshsort.ReversalPermutation(shape),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("delivered=%v\n", res.Delivered)
	// Output: delivered=true
}

// ExampleSelect finds the median and delivers it to the center
// processor.
func ExampleSelect() {
	cfg := meshsort.Config{Shape: meshsort.Mesh(2, 16), BlockSide: 4, Seed: 1}
	keys := make([]int64, cfg.Shape.N())
	for i := range keys {
		keys[i] = int64(i * 3 % 257)
	}
	res, err := meshsort.Select(cfg, keys, len(keys)/2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("correct=%v\n", res.Delivered)
	// Output: correct=true
}

// ExampleConfig_realLocalSort runs SimpleSort with the block-local sort
// phases fully simulated in-mesh (multi-dimensional shearsort) instead
// of oracle-charged.
func ExampleConfig_realLocalSort() {
	cfg := meshsort.Config{
		Shape:         meshsort.Mesh(3, 8),
		BlockSide:     4,
		Seed:          1,
		RealLocalSort: true,
	}
	res, err := meshsort.SimpleSort(cfg, meshsort.RandomKeys(cfg.Shape, 1, 7))
	if err != nil {
		panic(err)
	}
	fmt.Printf("sorted=%v\n", res.Sorted)
	// Output: sorted=true
}
