package pipeline_test

import (
	"errors"
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
)

// TestRunCancelsAtPhaseBoundary: with cfg.Route.Cancel set, Run polls
// the channel between phases, so a program cancels even when the
// remaining phases are all local/oracle work (which the engine's own
// step-boundary check never sees). The totals keep the completed prefix.
func TestRunCancelsAtPhaseBoundary(t *testing.T) {
	cancel := make(chan struct{})
	r := pipeline.New(pipeline.Config{
		Shape: grid.New(2, 4),
		Route: engine.RouteOpts{Cancel: cancel},
	})
	ran := 0
	err := r.Run(
		pipeline.Local{Name: "first", Apply: func(*engine.Net) (int, error) {
			ran++
			close(cancel) // cancel lands mid-program
			return 7, nil
		}},
		pipeline.Local{Name: "second", Apply: func(*engine.Net) (int, error) {
			ran++
			return 0, nil
		}},
	)
	if !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d phases, want 1 (cancel must stop the program at the boundary)", ran)
	}
	tot := r.Report()
	if tot.TotalSteps != 7 || len(tot.Phases) != 1 {
		t.Errorf("totals after cancel: steps=%d phases=%d, want the completed prefix (7 steps, 1 phase)",
			tot.TotalSteps, len(tot.Phases))
	}
}
