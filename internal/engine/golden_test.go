package engine_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/route"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
	"meshsort/internal/xmath"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/step_fingerprints.golden")

// policyKind names the routing policy of a routeCase.
type policyKind int

const (
	polGreedy policyKind = iota
	polDimOrder
	polFaultGreedy
	polClique
)

// routeCase is one small routing input: a topology, a policy, a k-relation
// and the optional fault, patience, timed-arrival and load-counting
// machinery. It is deterministic in its fields, so it can be replayed at
// any worker count and shard shift.
type routeCase struct {
	name     string
	tp       topo.Topology
	pol      policyKind
	k        int     // packets per processor
	faults   float64 // permanent edge-failure rate; 0 means no plan unless outages > 0
	outages  int     // transient outages drawn on top of the plan
	dead     int     // processors failed outright
	patience int     // RouteOpts.Patience
	timed    bool    // inject through an Arrivals plan and track sojourn
	loads    bool    // count link loads
	seed     uint64
}

// caseRun is what one replay of a routeCase records: the census hash
// after every step and a normalized summary of the outcome.
type caseRun struct {
	steps   []uint64
	summary string
}

func (c routeCase) faultPlan() *engine.FaultPlan {
	if c.faults == 0 && c.outages == 0 && c.dead == 0 {
		return nil
	}
	rng := xmath.NewRNG(c.seed).Split(0xfa)
	var f *engine.FaultPlan
	if s, ok := topo.MeshShape(c.tp); ok {
		f = engine.RandomFaultPlan(s, c.faults, rng.Uint64())
	} else {
		f = engine.RandomFaultPlanTopo(c.tp, c.faults, rng.Uint64())
	}
	for placed := 0; placed < c.outages; {
		r, l := rng.Intn(c.tp.N()), rng.Intn(c.tp.Links())
		if _, _, ok := c.tp.Reverse(r, l); !ok {
			continue
		}
		from := rng.Intn(12)
		f.Outage(r, l, from, from+1+rng.Intn(8))
		placed++
	}
	for i := 0; i < c.dead; i++ {
		f.FailProcessor(rng.Intn(c.tp.N()))
	}
	return f
}

func (c routeCase) policy(f *engine.FaultPlan) engine.Policy {
	switch c.pol {
	case polDimOrder:
		return route.NewDimOrder(c.tp)
	case polFaultGreedy:
		s, _ := topo.MeshShape(c.tp)
		return route.NewFaultGreedy(s, f)
	case polClique:
		return route.NewCliqueDirect(c.tp.(*topo.Clique))
	}
	s, _ := topo.MeshShape(c.tp)
	return route.NewGreedy(s)
}

// run replays the case on a fresh network with the given worker count
// and shard shift.
func (c routeCase) run(t testing.TB, workers, shift int) caseRun {
	t.Helper()
	net := engine.NewNet(c.tp)
	pool := engine.NewPool(workers)
	defer pool.Close()
	net.Pool = pool
	net.ShardShift = shift
	if c.loads {
		net.SetCountLoads(true)
	}
	N := c.tp.N()
	dims := 1
	if s, ok := topo.MeshShape(c.tp); ok {
		dims = s.Dim
	}
	rng := xmath.NewRNG(c.seed)
	var pkts []*engine.Packet
	for j := 0; j < c.k; j++ {
		dsts := rng.Perm(N)
		for r := 0; r < N; r++ {
			p := net.NewPacket(int64(len(pkts)), r)
			p.Dst = dsts[r]
			p.Class = (r + j) % dims
			pkts = append(pkts, p)
		}
	}
	f := c.faultPlan()
	opts := engine.RouteOpts{Faults: f, Patience: c.patience, Paranoid: true}
	var hist stats.Hist
	if c.timed {
		// Trickle the load in over a span of clocks; the stamps must be
		// nondecreasing, so draw gaps rather than stamps.
		arr := &engine.Arrivals{}
		clock := int32(0)
		for _, p := range pkts {
			if rng.Intn(4) == 0 {
				clock += int32(rng.Intn(3))
			}
			arr.Add(clock, p)
		}
		opts.Arrivals = arr
		opts.Sojourn = &hist
	} else {
		net.Inject(pkts)
	}
	var out caseRun
	opts.OnStep = func(int) { out.steps = append(out.steps, net.CensusHash()) }
	res, err := net.Route(c.policy(f), opts)
	res.Workers, res.Elapsed, res.WorkerBusy = 0, 0, 0
	var sb strings.Builder
	fmt.Fprintf(&sb, "result %+v\n", res)
	fmt.Fprintf(&sb, "err %v\n", err)
	fmt.Fprintf(&sb, "netMaxQueue %d\n", net.MaxQueue)
	if c.loads {
		fmt.Fprintf(&sb, "loads %+v\n", net.LoadProfile())
	}
	out.summary = sb.String()
	return out
}

// goldenCases is the parent-pinned corpus: small inputs covering mesh and
// torus at d=2 and d=3, the clique (whose link window is wider than a
// 64-bit grant mask), the greedy, dimension-order and fault-aware
// policies, permanent faults with transient outages and dead processors,
// explicit patience, timed arrivals with sojourn tracking, a 2-relation,
// an odd side, and load counting. Sizes span several 64-processor
// bitmap words so multi-worker runs split the ranks.
func goldenCases() []routeCase {
	return []routeCase{
		{name: "mesh-d2-n16-greedy-loads", tp: topo.FromShape(grid.New(2, 16)), pol: polGreedy, k: 1, loads: true, seed: 1},
		{name: "torus-d2-n12-greedy-k2", tp: topo.FromShape(grid.NewTorus(2, 12)), pol: polGreedy, k: 2, seed: 2},
		{name: "mesh-d3-n6-dimorder", tp: topo.FromShape(grid.New(3, 6)), pol: polDimOrder, k: 1, loads: true, seed: 3},
		{name: "torus-d3-n8-greedy-k2-loads", tp: topo.FromShape(grid.NewTorus(3, 8)), pol: polGreedy, k: 2, loads: true, seed: 4},
		{name: "clique-130-k2-loads", tp: topo.NewClique(130), pol: polClique, k: 2, loads: true, seed: 5},
		{name: "mesh-d3-n8-faultgreedy-faults-outages", tp: topo.FromShape(grid.New(3, 8)), pol: polFaultGreedy, k: 1, faults: 0.05, outages: 24, seed: 6},
		{name: "torus-d2-n16-faultgreedy-patience", tp: topo.FromShape(grid.NewTorus(2, 16)), pol: polFaultGreedy, k: 1, faults: 0.05, outages: 16, patience: 6, loads: true, seed: 7},
		{name: "mesh-d2-n16-greedy-timed", tp: topo.FromShape(grid.New(2, 16)), pol: polGreedy, k: 2, timed: true, seed: 8},
		{name: "mesh-d3-n8-greedy-patience-k2", tp: topo.FromShape(grid.New(3, 8)), pol: polGreedy, k: 2, patience: 3, seed: 9},
		{name: "torus-d3-n6-faultgreedy-dead-loads", tp: topo.FromShape(grid.NewTorus(3, 6)), pol: polFaultGreedy, k: 1, faults: 0.05, dead: 2, loads: true, seed: 10},
		{name: "mesh-d2-n15-faultgreedy-timed", tp: topo.FromShape(grid.New(2, 15)), pol: polFaultGreedy, k: 1, faults: 0.05, outages: 8, timed: true, seed: 11},
	}
}

// formatRun renders a case's recording for the golden file.
func formatRun(name string, r caseRun) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s\n%ssteps %d\n", name, r.summary, len(r.steps))
	for i, h := range r.steps {
		fmt.Fprintf(&sb, "%016x", h)
		if i%6 == 5 || i == len(r.steps)-1 {
			sb.WriteByte('\n')
		} else {
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// TestStepFingerprintsGolden replays the corpus at workers {1,2,3} and
// shard shifts {4,6,7} and requires every step's placement multiset and
// the normalized outcome to match testdata/step_fingerprints.golden,
// which pins the step semantics of the engine the file was generated on.
// Queue order is not compared: only multisets are part of the contract
// across worker counts. Regenerate with -update only for an intended
// change of routing behavior.
func TestStepFingerprintsGolden(t *testing.T) {
	path := filepath.Join("testdata", "step_fingerprints.golden")
	cases := goldenCases()
	if *updateGolden {
		var sb strings.Builder
		for _, c := range cases {
			sb.WriteString(formatRun(c.name, c.run(t, 1, 0)))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, block := range strings.Split(string(raw), "== ")[1:] {
		name, _, _ := strings.Cut(block, "\n")
		want[name] = "== " + block
	}
	for _, c := range cases {
		exp, ok := want[c.name]
		if !ok {
			t.Errorf("%s: missing from %s (run with -update)", c.name, path)
			continue
		}
		for _, w := range []int{1, 2, 3} {
			for _, shift := range []int{4, 6, 7} {
				if got := formatRun(c.name, c.run(t, w, shift)); got != exp {
					t.Errorf("%s workers=%d shift=%d: recording differs from the golden file\ngot:\n%s\nwant:\n%s", c.name, w, shift, got, exp)
				}
			}
		}
	}
}

// FuzzRouteWorkersAgree draws small routing inputs — mesh, torus or
// clique; greedy, dimension-order or fault-aware policy; permanent
// faults, outages, dead processors, patience, timed arrivals, load
// counting, a k-relation and a shard shift — and requires the runs at 2
// and 3 workers to record the same per-step placement multisets and the
// same normalized outcome as the run at 1 worker.
func FuzzRouteWorkersAgree(f *testing.F) {
	f.Add(uint64(1), byte(0), byte(12), byte(0), byte(0), byte(0))
	f.Add(uint64(2), byte(3), byte(5), byte(2), byte(0x8f), byte(2))
	f.Add(uint64(3), byte(4), byte(120), byte(0), byte(0xc3), byte(1))
	f.Add(uint64(4), byte(1), byte(140), byte(1), byte(0x40), byte(3))
	f.Add(uint64(5), byte(2), byte(200), byte(2), byte(0x6d), byte(0))
	f.Fuzz(func(t *testing.T, seed uint64, kind, size, pol, flags, shift byte) {
		c := routeCase{name: "fuzz", k: 1 + int(size>>7), seed: seed}
		switch kind % 5 {
		case 0:
			c.tp = topo.FromShape(grid.New(2, 4+int(size)%13))
		case 1:
			c.tp = topo.FromShape(grid.NewTorus(2, 4+int(size)%13))
		case 2:
			c.tp = topo.FromShape(grid.New(3, 3+int(size)%6))
		case 3:
			c.tp = topo.FromShape(grid.NewTorus(3, 3+int(size)%6))
		default:
			c.tp = topo.NewClique(3 + int(size)%140)
		}
		if _, mesh := topo.MeshShape(c.tp); mesh {
			c.pol = []policyKind{polGreedy, polDimOrder, polFaultGreedy}[pol%3]
		} else {
			c.pol = polClique
		}
		if flags&1 != 0 {
			c.faults = 0.05
		}
		if flags&2 != 0 {
			c.outages = 8
		}
		if flags&4 != 0 {
			c.dead = 1
		}
		if flags&8 != 0 {
			c.patience = 2 + int(flags>>4)%6
		}
		c.timed = flags&0x40 != 0
		c.loads = flags&0x80 != 0
		sh := []int{0, 4, 6, 7}[shift%4]
		want := formatRun(c.name, c.run(t, 1, sh))
		for _, w := range []int{2, 3} {
			if got := formatRun(c.name, c.run(t, w, sh)); got != want {
				t.Fatalf("%v workers=%d shift=%d disagrees with 1 worker:\ngot:\n%s\nwant:\n%s", c.tp, w, sh, got, want)
			}
		}
	})
}
