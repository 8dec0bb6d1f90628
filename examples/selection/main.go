// Selection: find the median of a distributed key set and deliver it to
// the center processor in about D steps (Section 4.3), and compare the
// movement cost against the lower bound of Theorem 4.5.
//
//	go run ./examples/selection
package main

import (
	"fmt"
	"log"

	"meshsort"
	"meshsort/internal/lb"
)

func main() {
	cfg := meshsort.Config{Shape: meshsort.Mesh(3, 16), BlockSide: 4, Seed: 3}
	keys := meshsort.RandomKeys(cfg.Shape, 1, 1234)
	N := cfg.Shape.N()
	D := cfg.Shape.Diameter()

	res, err := meshsort.Select(cfg, keys, N/2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selection on %v (D = %d)\n", cfg.Shape, D)
	fmt.Printf("  median key: %d (correct: %v)\n", res.Value, res.Delivered)
	fmt.Printf("  routing steps: %d = %.3f x D  (Section 4.3 upper bound: ~1.0 x D)\n",
		res.RouteSteps, float64(res.RouteSteps)/float64(D))
	fmt.Printf("  candidates inside the estimate window: %d of %d\n", res.Candidates, N)
	fmt.Println("\nphases:")
	for _, ph := range res.Phases {
		fmt.Printf("  %-22s %-7s %5d steps\n", ph.Name, ph.Kind, ph.Steps)
	}

	// Other ranks work the same way.
	for _, rank := range []int{0, N / 4, N - 1} {
		r, err := meshsort.Select(cfg, keys, rank)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nrank %5d -> key %d (correct: %v, %d routing steps)", rank, r.Value, r.Delivered, r.RouteSteps)
	}

	fmt.Println("\n\nTheorem 4.5 lower bound (9/16 - eps) x D, evaluated at eps = 0.05:")
	for _, d := range []int{64, 256, 512} {
		b := lb.Theorem45(d, 8, 0.05)
		fmt.Printf("  d=%3d: premise holds = %-5v  LB = %.0f steps (%.3f x D)\n",
			d, b.Premise, b.LowerBound, b.LowerBound/float64(d*7))
	}
}
