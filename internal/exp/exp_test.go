package exp

import (
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"meshsort/internal/stats"
)

// The experiment functions certify correctness internally (a sort that
// does not sort, or a run above an asserted bound, panics), so these
// tests run the quick sweeps end-to-end and sanity-check the table
// shapes and headline invariants.

var quick = Options{Quick: true, Seed: 1}

func rows(t *stats.Table) [][]string { return t.Rows }

func col(t *stats.Table, name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

func floatCell(t *testing.T, tb *stats.Table, row int, colName string) float64 {
	t.Helper()
	c := col(tb, colName)
	if c < 0 {
		t.Fatalf("table %q has no column %q", tb.Title, colName)
	}
	v, err := strconv.ParseFloat(tb.Rows[row][c], 64)
	if err != nil {
		t.Fatalf("cell %s[%d] = %q not a number", colName, row, tb.Rows[row][c])
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tb := E1SimpleSortMesh(quick)
	if len(rows(tb)) == 0 {
		t.Fatal("no rows")
	}
	for i := range tb.Rows {
		r := floatCell(t, tb, i, "route/D")
		if r < 0.8 || r > 2.0 {
			t.Errorf("row %d: SimpleSort ratio %.3f outside sane envelope", i, r)
		}
	}
}

func TestE3TorusPairDistHalf(t *testing.T) {
	tb := E3TorusSort(quick)
	for i := range tb.Rows {
		pd := floatCell(t, tb, i, "pairdist/D")
		if pd > 0.55 {
			t.Errorf("row %d: torus pair distance %.3f above Lemma 3.4's 0.5 (+slack)", i, pd)
		}
	}
}

func TestE4Ordering(t *testing.T) {
	tb := E4Baselines(quick)
	var full, simple float64
	for i, row := range tb.Rows {
		switch row[0] {
		case "FullSort":
			full = floatCell(t, tb, i, "route/D")
		case "SimpleSort":
			simple = floatCell(t, tb, i, "route/D")
		}
	}
	if !(simple < full) {
		t.Errorf("headline ordering broken: SimpleSort %.3f vs FullSort %.3f", simple, full)
	}
}

func TestE5Monotone(t *testing.T) {
	tb := E5GreedyMultiPerm(quick)
	// Within one network the overshoot must not decrease as k grows.
	last := map[string]float64{}
	for i, row := range tb.Rows {
		net := row[0]
		ov := floatCell(t, tb, i, "overshoot")
		if prev, ok := last[net]; ok && ov+2 < prev {
			t.Errorf("%s: overshoot dropped sharply with more load: %.0f -> %.0f", net, prev, ov)
		}
		last[net] = ov
	}
}

func TestE6WithinBound(t *testing.T) {
	tb := E6TwoPhaseRoute(quick)
	for i := range tb.Rows {
		steps := floatCell(t, tb, i, "two-phase")
		bound := floatCell(t, tb, i, "bound")
		// Allow modest finite-size contention slack above the bound.
		if steps > bound*1.25 {
			t.Errorf("row %d: two-phase %v far above bound %v", i, steps, bound)
		}
	}
}

func TestE7AllHold(t *testing.T) {
	tb := E7DiamondBounds(quick)
	c := col(tb, "holds")
	for i, row := range tb.Rows {
		if row[c] != "true" {
			t.Errorf("row %d: Lemma 4.1 violated", i)
		}
	}
}

func TestE8Tables(t *testing.T) {
	ts := E8LowerBounds(quick)
	if len(ts) != 3 {
		t.Fatalf("E8 returned %d tables", len(ts))
	}
	// Every standard scheme must be compatible.
	t3 := ts[2]
	c := col(t3, "compatible (beta<1)")
	for i, row := range t3.Rows {
		if row[c] != "true" {
			t.Errorf("row %d: scheme not compatible", i)
		}
	}
}

func TestE9SelectionNearD(t *testing.T) {
	ts := E9Selection(quick)
	t1 := ts[0]
	for i := range t1.Rows {
		r := floatCell(t, t1, i, "route/D")
		if r > 1.3 {
			t.Errorf("row %d: selection ratio %.3f far above 1.0", i, r)
		}
		if t1.Rows[i][col(t1, "correct")] != "true" {
			t.Errorf("row %d: selection incorrect", i)
		}
	}
}

func TestE11RadiusMonotone(t *testing.T) {
	tb := E11CenterRadius(quick)
	prev := -1.0
	for i := range tb.Rows {
		r := floatCell(t, tb, i, "radius r")
		if i > 0 && r < prev {
			t.Errorf("region radius not monotone in size: %.0f after %.0f", r, prev)
		}
		prev = r
	}
}

func TestE13CorrectedNoWorse(t *testing.T) {
	tb := E13AltEstimator(quick)
	// Rows come in (paper, corrected) pairs per config.
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		paper := floatCell(t, tb, i, "merges")
		corrected := floatCell(t, tb, i+1, "merges")
		if corrected > paper {
			t.Errorf("config %d: corrected estimator used more merges (%v > %v)", i/2, corrected, paper)
		}
	}
}

func TestE14RunsAndDelivers(t *testing.T) {
	tb := E14Derandomization(quick)
	if len(tb.Rows) < 4 {
		t.Fatalf("E14 produced %d rows", len(tb.Rows))
	}
}

func TestE15OfflineDelivers(t *testing.T) {
	tb := E15OfflineRoute(quick)
	c := col(tb, "delivered")
	for i, row := range tb.Rows {
		if row[c] != "true" {
			t.Errorf("row %d: offline routing failed", i)
		}
	}
}

func TestE12QueuesConstant(t *testing.T) {
	tb := E12QueueAudit(quick)
	for i := range tb.Rows {
		q := floatCell(t, tb, i, "maxq")
		if q > 24 {
			t.Errorf("row %d (%s): queue %v too large for the O(1) model", i, tb.Rows[i][0], q)
		}
	}
}

func TestE19DegradesGracefully(t *testing.T) {
	tb := E19FaultTolerance(quick)
	if len(tb.Rows) < 3 {
		t.Fatalf("E19 produced %d rows", len(tb.Rows))
	}
	if v := floatCell(t, tb, 0, "slowdown"); v != 1 {
		t.Errorf("fault-free baseline slowdown = %v, want 1", v)
	}
	if v := floatCell(t, tb, 0, "stranded"); v != 0 {
		t.Errorf("fault-free run stranded %v packets", v)
	}
	for i := range tb.Rows {
		slow := floatCell(t, tb, i, "slowdown")
		if slow < 0.9 || slow > 50 {
			t.Errorf("row %d: slowdown %v outside sane envelope", i, slow)
		}
	}
}

// TestTablesRepeatIdentically is a determinism re-run: it runs every
// table that goes through the spec harness twice in one process and
// requires identical tables. The second pass runs the tables as
// parallel subtests, in reverse order, so under -race the detector sees
// concurrent runs and would flag any package state they share.
func TestTablesRepeatIdentically(t *testing.T) {
	tables := map[string]func(Options) *stats.Table{
		"E1": E1SimpleSortMesh, "E1b": E1bSeedStability, "E2": E2CopySortMesh, "E3": E3TorusSort,
		"E4": E4Baselines, "E6": E6TwoPhaseRoute, "E9a": func(o Options) *stats.Table { return E9Selection(o)[0] },
		"E10": E10KKSort, "E12": E12QueueAudit, "E13": E13AltEstimator, "E14": E14Derandomization,
		"E17": E17RealLocalSort, "E18": E18QueueBlowup, "E19": E19FaultTolerance, "E20": E20PhaseTrace,
		"E21": E21CliqueRoute, "E22": E22KKSortBound, "E23": E23SojournVsRate,
	}
	ids := slices.Sorted(maps.Keys(tables))
	first := map[string]string{}
	for _, id := range ids {
		first[id] = tables[id](quick).String()
	}
	slices.Reverse(ids)
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			if got := tables[id](quick).String(); got != first[id] {
				t.Errorf("second run differs:\n%s\nfirst run:\n%s", got, first[id])
			}
		})
	}
}

func TestTablesRenderAndCSV(t *testing.T) {
	tb := E6bMinNu(quick)
	if !strings.Contains(tb.String(), "min-nu") || !strings.Contains(tb.CSV(), "min-nu") {
		t.Error("table rendering broken")
	}
}
