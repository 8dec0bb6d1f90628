package meshsort_test

import (
	"sort"
	"testing"

	"meshsort"
)

// TestFacadeQuickstart is the integration test mirroring
// examples/quickstart: the full public API path.
func TestFacadeQuickstart(t *testing.T) {
	cfg := meshsort.Config{Shape: meshsort.Mesh(3, 8), BlockSide: 4, Seed: 1}
	keys := meshsort.RandomKeys(cfg.Shape, 1, 2)
	res, err := meshsort.SimpleSort(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sorted {
		t.Fatal("not sorted")
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if res.Final[i] != want[i] {
			t.Fatalf("final[%d] mismatch", i)
		}
	}
}

func TestFacadeAllAlgorithms(t *testing.T) {
	mesh := meshsort.Config{Shape: meshsort.Mesh(3, 8), BlockSide: 4, Seed: 2}
	torus := meshsort.Config{Shape: meshsort.Torus(3, 8), BlockSide: 4, Seed: 2}
	keys := meshsort.RandomKeys(mesh.Shape, 1, 3)

	if res, err := meshsort.CopySort(mesh, keys); err != nil || !res.Sorted {
		t.Errorf("CopySort: %v", err)
	}
	if res, err := meshsort.TorusSort(torus, keys); err != nil || !res.Sorted {
		t.Errorf("TorusSort: %v", err)
	}
	if res, err := meshsort.FullSort(mesh, keys); err != nil || !res.Sorted {
		t.Errorf("FullSort: %v", err)
	}
	if res, err := meshsort.Select(mesh, keys, len(keys)/2); err != nil || !res.Delivered {
		t.Errorf("Select: %v", err)
	}
}

func TestFacadeRouting(t *testing.T) {
	shape := meshsort.Mesh(3, 8)
	for _, prob := range []meshsort.Problem{
		meshsort.RandomPermutation(shape, 7),
		meshsort.ReversalPermutation(shape),
		meshsort.TransposePermutation(shape),
	} {
		res, err := meshsort.TwoPhaseRoute(meshsort.RouteConfig{Shape: shape, BlockSide: 4}, prob)
		if err != nil || !res.Delivered {
			t.Errorf("%s: %v delivered=%v", prob.Name, err, res.Delivered)
		}
	}
}

func TestFacadeComparison(t *testing.T) {
	// The paper's headline: SimpleSort beats the previous-best FullSort
	// on routing steps.
	cfg := meshsort.Config{Shape: meshsort.Mesh(2, 32), BlockSide: 8, Seed: 3}
	keys := meshsort.RandomKeys(cfg.Shape, 1, 4)
	simple, err := meshsort.SimpleSort(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	full, err := meshsort.FullSort(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	if simple.RouteSteps >= full.RouteSteps {
		t.Errorf("SimpleSort (%d) not faster than FullSort (%d)", simple.RouteSteps, full.RouteSteps)
	}
}

func TestFacadeRandomizedAndOffline(t *testing.T) {
	mesh := meshsort.Config{Shape: meshsort.Mesh(3, 8), BlockSide: 4, Seed: 9}
	keys := meshsort.RandomKeys(mesh.Shape, 1, 5)
	if res, err := meshsort.RandSimpleSort(mesh, keys); err != nil || !res.Sorted {
		t.Errorf("RandSimpleSort: %v", err)
	}
	prob := meshsort.HotSpotPermutation(mesh.Shape)
	if res, err := meshsort.RandTwoPhaseRoute(meshsort.RouteConfig{Shape: mesh.Shape, BlockSide: 4, Seed: 9}, prob); err != nil || !res.Delivered {
		t.Errorf("RandTwoPhaseRoute: %v", err)
	}
	if res, err := meshsort.RouteBySorting(mesh, prob); err != nil || !res.Sorted {
		t.Errorf("RouteBySorting: %v", err)
	}
}
