package route

import (
	"sort"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
	"meshsort/internal/xmath"
)

// Batch routes whole routing problems through fresh networks and reports
// distance-optimality statistics. It is the workhorse of experiment E5
// (Lemmas 2.1-2.3) and of the greedy baselines in E6.

// BatchOpts configures RunProblem.
type BatchOpts struct {
	Mode      ClassMode
	BlockSide int    // block side for ClassLocalRank (must divide n); 0 disables blocking (per-processor classes)
	Seed      uint64 // seed for ClassRandom
	MaxSteps  int    // engine safety limit; 0 for default
	// ShardShift overrides the engine's shard sizing (log2 processors
	// per shard; 0 means automatic, see engine.Net.ShardShift).
	ShardShift int
	// Pool optionally supplies a persistent engine worker pool shared
	// across problems; nil means one worker, the caller's goroutine.
	Pool *engine.Pool

	// Faults, if non-nil, injects the plan into the phase and switches the
	// policy from Greedy to FaultGreedy so packets detour around permanent
	// failures. Patience, NoProgress, and Paranoid pass through to
	// engine.RouteOpts (graceful degradation; see that type for the
	// semantics and defaults).
	Faults     *engine.FaultPlan
	Patience   int
	NoProgress int
	Paranoid   bool

	// CountLoads enables per-link load counting on the network (for
	// congestion heatmaps); off by default because counting costs memory
	// and atomics on the hot path.
	CountLoads bool
	// Observer, if set, receives the phase's PhaseStat when it completes.
	Observer pipeline.Observer

	// Policy overrides the default policy selection (Greedy/FaultGreedy
	// on meshes, CliqueDirect on the clique, DimOrder elsewhere — see
	// DefaultPolicy). The override must satisfy the engine's purity and
	// monotonicity contract for the topology it routes on.
	Policy engine.Policy
	// Runner, if non-nil, is Reset to the problem's configuration and
	// reused instead of building a fresh runner — the warm-pool entry
	// point (the service leases same-geometry runners so repeat problems
	// route allocation-free).
	Runner *pipeline.Runner
	// Cancel, if non-nil, aborts the phase cooperatively at a step
	// boundary (see engine.RouteOpts.Cancel).
	Cancel <-chan struct{}
}

// RunProblem injects the routing problem into a fresh network of the
// given shape, assigns classes per the options, routes with the greedy
// policy as a one-phase pipeline program, and returns the engine phase
// result together with the network (holding the delivered packets, for
// callers that want to inspect the outcome). On a degraded abort the
// returned result carries the partial phase statistics.
func RunProblem(s grid.Shape, prob perm.Problem, opts BatchOpts) (engine.RouteResult, *engine.Net, error) {
	return RunTopoProblem(topo.FromShape(s), prob, opts)
}

// RunTopoProblem is RunProblem over an arbitrary topology: the same
// one-phase greedy pipeline program, with the policy chosen by
// DefaultPolicy unless opts.Policy overrides it. Class assignment is a
// mesh concept (classes rotate the dimension scan), so on non-mesh
// topologies every packet keeps class 0 and opts.Mode is ignored.
func RunTopoProblem(t topo.Topology, prob perm.Problem, opts BatchOpts) (engine.RouteResult, *engine.Net, error) {
	return opts.route(t, "greedy", nil, nil, func(net *engine.Net) error {
		pkts := make([]*engine.Packet, prob.Size())
		for i := range pkts {
			p := net.NewPacket(int64(prob.Dst[i]), prob.Src[i])
			p.Dst = prob.Dst[i]
			pkts[i] = p
		}
		opts.assignClasses(t, pkts)
		net.Inject(pkts)
		return nil
	})
}

// route is the one body of RunTopoProblem and RunTimedLoad: it arms the
// runner for topology t under the options, with the arrivals plan and
// sojourn histogram (both nil for a batch problem) in its route options,
// and routes one phase whose Prepare creates the packets.
func (opts BatchOpts) route(t topo.Topology, name string, arr *engine.Arrivals, soj *stats.Hist,
	prepare func(net *engine.Net) error) (engine.RouteResult, *engine.Net, error) {
	pol := opts.Policy
	if pol == nil {
		pol = DefaultPolicy(t, opts.Faults)
	}
	runner := pipeline.Arm(opts.Runner, pipeline.Config{
		Topo:       t,
		ShardShift: opts.ShardShift,
		Pool:       opts.Pool,
		Policy:     pol,
		Route: engine.RouteOpts{
			MaxSteps:   opts.MaxSteps,
			Faults:     opts.Faults,
			Patience:   opts.Patience,
			NoProgress: opts.NoProgress,
			Paranoid:   opts.Paranoid,
			Cancel:     opts.Cancel,
			Arrivals:   arr,
			Sojourn:    soj,
		},
		Observer: opts.Observer,
	})
	net := runner.Net()
	if opts.CountLoads {
		net.SetCountLoads(true)
	}
	err := runner.Run(pipeline.Route{Name: name, Prepare: prepare})
	return runner.LastRoute(), net, err
}

// assignClasses gives pkts the options' classes on a mesh or torus.
// Class assignment is a mesh concept (classes rotate the dimension
// scan), so on other topologies every packet keeps class 0.
func (opts BatchOpts) assignClasses(t topo.Topology, pkts []*engine.Packet) {
	if s, ok := topo.MeshShape(t); ok {
		AssignClasses(s, pkts, nil, opts.Mode, opts.BlockSide, opts.Seed)
	}
}

// AssignClasses sets Packet.Class for a batch of packets. locs gives the
// current processor of each packet (parallel to pkts); nil means the
// packets sit at their Src processors.
//
// For ClassLocalRank, packets are grouped by the block of their current
// processor (blocks of the given side; side 0 or 1 groups per processor),
// ordered within each group by destination, and given class = position
// mod d. This mirrors the deterministic class assignment of Section 2.2:
// the o(n)-cost local sort that realizes it is charged by the caller as
// part of its local phases.
func AssignClasses(s grid.Shape, pkts []*engine.Packet, locs []int, mode ClassMode, blockSide int, seed uint64) {
	d := s.Dim
	locOf := func(i int) int { return pkts[i].Src }
	if locs != nil {
		locOf = func(i int) int { return locs[i] }
	}
	switch mode {
	case ClassZero:
		for _, p := range pkts {
			p.Class = 0
		}
	case ClassRandom:
		rng := xmath.NewRNG(seed).Split(0xc1a55)
		for _, p := range pkts {
			p.Class = rng.Intn(d)
		}
	case ClassLocalRank:
		groupOf := func(rank int) int { return rank }
		if blockSide > 1 {
			bs := grid.Blocks(s, blockSide)
			groupOf = bs.BlockOf
		}
		groups := make(map[int][]*engine.Packet)
		for i, p := range pkts {
			g := groupOf(locOf(i))
			groups[g] = append(groups[g], p)
		}
		for _, g := range groups {
			sort.Sort(byDstID(g))
			for i, p := range g {
				p.Class = i % d
			}
		}
	}
}

// byDstID orders packets by (Dst, ID) — the deterministic within-group
// order of ClassLocalRank. A concrete sort.Interface so class assignment
// allocates no comparison closure.
type byDstID []*engine.Packet

func (g byDstID) Len() int { return len(g) }
func (g byDstID) Less(i, j int) bool {
	if g[i].Dst != g[j].Dst {
		return g[i].Dst < g[j].Dst
	}
	return g[i].ID < g[j].ID
}
func (g byDstID) Swap(i, j int) { g[i], g[j] = g[j], g[i] }

// OptimalityReport summarizes how close a routing run came to
// distance-optimality: a scheme is distance-optimal when every packet
// arrives within S + o(n) steps of its activation, S being its
// source-destination distance. MaxOvershoot is the worst slack observed.
type OptimalityReport struct {
	K            int     // number of simultaneous permutations
	Steps        int     // total steps of the phase
	MaxDist      int     // max source-destination distance
	MaxOvershoot int     // max (delivery time - distance) over packets
	AvgOvershoot float64 // mean slack
	MaxQueue     int     // peak per-processor occupancy
}

// MeasureMultiPerm routes k simultaneous random permutations on the
// shape under the extended greedy scheme and reports distance-optimality
// statistics (experiment E5, Lemmas 2.1-2.3).
func MeasureMultiPerm(s grid.Shape, k int, opts BatchOpts) (OptimalityReport, error) {
	rng := xmath.NewRNG(opts.Seed)
	prob := perm.RandomK(s, k, rng)
	res, _, err := RunProblem(s, prob, opts)
	if err != nil {
		return OptimalityReport{}, err
	}
	return OptimalityReport{
		K:            k,
		Steps:        res.Steps,
		MaxDist:      res.MaxDist,
		MaxOvershoot: res.MaxOvershoot,
		AvgOvershoot: res.AvgOvershoot(),
		MaxQueue:     res.MaxQueue,
	}, nil
}

// MeasureUnshuffles routes k simultaneous copies of the unshuffle
// permutation (the deterministic substitute for random permutations; see
// Section 2.1) and reports the same statistics. The k copies are launched
// with classes spread deterministically, mirroring how the sorting
// algorithms consume routing bandwidth.
func MeasureUnshuffles(s grid.Shape, prob perm.Problem, k int, opts BatchOpts) (OptimalityReport, error) {
	probs := make([]perm.Problem, k)
	for i := range probs {
		probs[i] = prob
	}
	all := perm.Concat(prob.Name, probs...)
	res, _, err := RunProblem(s, all, opts)
	if err != nil {
		return OptimalityReport{}, err
	}
	return OptimalityReport{
		K:            k,
		Steps:        res.Steps,
		MaxDist:      res.MaxDist,
		MaxOvershoot: res.MaxOvershoot,
		AvgOvershoot: res.AvgOvershoot(),
		MaxQueue:     res.MaxQueue,
	}, nil
}
