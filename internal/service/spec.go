// Package service multiplexes many independent simulation jobs over a
// bounded pool of warm pipeline runners.
//
// A JobSpec names one run of one of the repo's algorithms (algorithm,
// shape, block side, packets per processor, seed, fault plan). Specs are
// canonicalized — defaults filled in, fields validated — so that two
// requests for the same simulation share one canonical form and one
// cache key. Run executes a canonical spec on a caller-owned runner; it
// is the one algorithm dispatch table, shared by the Service and
// cmd/meshsort. The Service leases a warm runner keyed by network shape
// (same-shape jobs hit Runner.Reset instead of reallocating) and serves
// repeated specs from a sharded LRU result cache without re-simulating.
// Admission is bounded: resource ceilings reject oversized specs, and
// when the queue is full Submit returns ErrOverloaded instead of
// queuing unboundedly. See DESIGN.md §6.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/topo"
	"meshsort/internal/traffic"
)

// Algorithms the service accepts: every algorithm of the repo, the
// paper's and the baselines alike. Run is their one dispatch table.
const (
	AlgSimple      = "simple"      // SimpleSort, Theorem 3.1 (k-k via K)
	AlgCopy        = "copy"        // CopySort, Theorem 3.2 (mesh only)
	AlgTorusSort   = "torussort"   // TorusSort, Theorem 3.3 (torus only)
	AlgFull        = "full"        // FullSort, the 2D + o(n) previous best
	AlgOddEven     = "oddeven"     // odd-even transposition along the snake (baseline)
	AlgShear       = "shear"       // whole-mesh shearsort (baseline)
	AlgRoute       = "route"       // TwoPhaseRoute, Theorems 5.1/5.2
	AlgGreedyRoute = "greedyroute" // one-phase greedy permutation routing (baseline)
	AlgSelect      = "select"      // Select, Section 4.3
	AlgCliqueRoute = "cliqueroute" // direct greedy k-relation on the clique
	AlgTraffic     = "traffic"     // timed (ℓ,k) traffic with sojourn percentiles
)

// Topologies the service accepts. Mesh and torus are the paper's
// networks; the clique is the congested-clique comparison workload
// (alg=cliqueroute only). An empty Topology canonicalizes to mesh or
// torus per the Torus flag, so pre-topology specs keep their meaning.
const (
	TopologyMesh   = "mesh"
	TopologyTorus  = "torus"
	TopologyClique = "clique"
)

// IndexingBlockedSnake is the only indexing scheme the sorting and
// two-phase routing algorithms run on (internal/index's blocked
// snake-like order); the field exists so the canonical spec names its
// indexing explicitly. The clique has no blocked indexing — clique
// specs canonicalize to IndexingNone.
const (
	IndexingBlockedSnake = "blocked-snake"
	IndexingNone         = "none"
)

// Dimension and deadline ranges, checked by Canonicalize.
const (
	MaxDim = 6

	// MaxDeadlineMS caps requested deadlines at one hour; a deadline is a
	// client-abandonment bound, not a scheduling reservation.
	MaxDeadlineMS = 3_600_000
)

// Resource ceilings enforced at admission (SubmitWith), so a single
// request cannot ask the service to build an arbitrarily large network.
// Canonicalize does not apply them: an in-process caller such as
// cmd/meshsort runs whatever fits in its own memory. The
// processor ceiling admits a full 64^3 mesh: with per-job deadlines and
// cancellation (DeadlineMS, DELETE /v1/jobs/{id}) a large job can no
// longer wedge a runner slot indefinitely, so the admission ceiling is
// a memory bound, not a runtime bound.
const (
	MaxSide       = 64
	MaxProcessors = 1 << 19
	MaxPackets    = 1 << 20 // k * N

	// MaxCliqueNodes bounds the clique: every node carries n-1 links, so
	// memory grows quadratically in n (a 512-clique already builds ~262k
	// directed edges, the same order as the largest admissible mesh's
	// link count). MaxCliqueK bounds the k-relation multiplicity; greedy
	// direct routing delivers in <= k steps, so k is also the run's step
	// budget and must sit well under the engine's MaxSteps default
	// (64*diameter + 1024 = 1088 on the clique).
	MaxCliqueNodes = 512
	MaxCliqueK     = 512

	// MaxOddEvenProcessors bounds alg=oddeven, whose Θ(N) transposition
	// rounds each touch all N processors and cannot be cancelled: the
	// ceiling's Θ(N²) work takes a few seconds.
	MaxOddEvenProcessors = 1 << 15

	// MaxInjectHorizon caps the last scheduled arrival clock of a timed
	// traffic job (alg=traffic): the engine extends its step budget past
	// the final arrival, so an unbounded window or a near-zero trickle
	// rate would turn one request into an arbitrarily long simulation.
	MaxInjectHorizon = 1 << 20
)

// JobSpec is the canonical description of one simulation job. The zero
// value of every optional field means "the default"; Canonicalize fills
// the defaults in, so two specs that request the same simulation
// canonicalize to identical values and share one cache Key.
type JobSpec struct {
	Alg string `json:"alg"` // one of the Alg* constants
	// Topology selects the network: mesh|torus|clique. "" means mesh (or
	// torus when the Torus flag is set, or the topology the algorithm
	// forces — torussort implies torus, cliqueroute implies clique). On
	// the clique, D is forced to 1 and N is the node count.
	Topology string `json:"topology,omitempty"`
	D        int    `json:"d"`               // dimension (clique: forced to 1)
	N        int    `json:"n"`               // side length (clique: node count)
	Torus    bool   `json:"torus,omitempty"` // torus instead of mesh (forced by torussort)

	// B is the block side length; 0 picks the default: 4 when it divides
	// n, else n/2.
	B int `json:"b,omitempty"`
	// K is the number of packets per processor (k-k sorting for simple,
	// the k-relation multiplicity for cliqueroute); 0 means 1.
	K int `json:"k,omitempty"`
	// Indexing names the block indexing scheme; "" means (and the only
	// accepted value is) "blocked-snake".
	Indexing string `json:"indexing,omitempty"`
	// Seed drives every random choice of the run (keys, permutations,
	// class assignment); 0 means 1. Runs are deterministic in the spec.
	Seed uint64 `json:"seed,omitempty"`

	// Perm is the routing problem for alg=route and alg=greedyroute:
	// random|reversal|transpose|hotspot; "" means random. Must be empty
	// for the other algorithms.
	Perm string `json:"perm,omitempty"`
	// Policy overrides greedyroute's routing policy: greedy|dimorder.
	// "" means the topology default (greedy, or its fault-aware variant
	// when faults are on). Classes is greedyroute's class assignment:
	// zero|random|local, "" meaning local. Both must be empty for the
	// other algorithms.
	Policy  string `json:"policy,omitempty"`
	Classes string `json:"classes,omitempty"`
	// RealLocalSort simulates the block-local sorts in-mesh (shearsort)
	// instead of charging the cost model; AltEstimator switches to the
	// bias-corrected destination estimator. Both apply to the sorts
	// (simple, copy, torussort, full) and select only.
	RealLocalSort bool `json:"realLocalSort,omitempty"`
	AltEstimator  bool `json:"altEstimator,omitempty"`
	// Load is the demand model for alg=traffic, in the workload DSL of
	// internal/traffic: perm, k:<k>, lk:l=<ℓ>,k=<k>,
	// hotspot:frac=<f>,targets=<t>, partial:frac=<f>. "" means perm.
	// Must be empty for the other algorithms.
	Load string `json:"load,omitempty"`
	// Inject is the arrival schedule for alg=traffic: batch,
	// window:<span>, trickle:<rate>. "" means batch. Must be empty for
	// the other algorithms.
	Inject string `json:"inject,omitempty"`
	// Target is the rank to select for alg=select; 0 means N/2 (the
	// median). Must be 0 for the other algorithms.
	Target int `json:"target,omitempty"`

	// Faults is the fraction of links to fail permanently (a seeded
	// random fault plan, as cmd/meshsort -faults); 0 means a perfect
	// network.
	Faults    float64 `json:"faults,omitempty"`
	FaultSeed uint64  `json:"faultSeed,omitempty"` // 0 means 1
	// Patience is the engine's stranding budget; 0 means the engine
	// default (auto when faults are on), negative disables stranding.
	Patience int `json:"patience,omitempty"`

	// DeadlineMS bounds the job's wall-clock lifetime in milliseconds,
	// measured from admission (queue wait included). A job past its
	// deadline stops cooperatively at the next engine step boundary and
	// reports status "timed-out" with the partial result accumulated so
	// far. 0 means no deadline. Deliberately excluded from the cache Key:
	// a deadline changes when a job is abandoned, never what its
	// simulation computes, so equal specs with different deadlines share
	// one cached result.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// Canonicalize validates the spec and returns it with every default
// made explicit. The returned spec is what Run executes and what the
// service hashes and reports back; Canonicalize is idempotent. It does
// not apply the admission ceilings (MaxSide and friends): those bound
// what the service accepts from untrusted clients, and SubmitWith
// checks them on top.
func (s JobSpec) Canonicalize() (JobSpec, error) { return s.canonicalize(false) }

// admit is Canonicalize plus the admission ceilings, each checked where
// Canonicalize checks the field it bounds, so a rejected request gets
// the same error whichever rule it breaks first.
func (s JobSpec) admit() (JobSpec, error) { return s.canonicalize(true) }

// sortsKeys reports whether alg sorts (or selects from) random keys
// with the block machinery of internal/core.
func sortsKeys(alg string) bool {
	switch alg {
	case AlgSimple, AlgCopy, AlgTorusSort, AlgFull, AlgSelect:
		return true
	}
	return false
}

func (s JobSpec) canonicalize(ceilings bool) (JobSpec, error) {
	switch s.Alg {
	case AlgSimple, AlgCopy, AlgTorusSort, AlgFull, AlgOddEven, AlgShear,
		AlgRoute, AlgGreedyRoute, AlgSelect, AlgCliqueRoute, AlgTraffic:
	case "":
		return s, fmt.Errorf("service: spec is missing alg")
	default:
		return s, fmt.Errorf("service: unknown alg %q", s.Alg)
	}
	if s.Alg != AlgGreedyRoute && (s.Policy != "" || s.Classes != "") {
		return s, fmt.Errorf("service: policy and classes apply to alg=greedyroute only")
	}
	if !sortsKeys(s.Alg) && (s.RealLocalSort || s.AltEstimator) {
		return s, fmt.Errorf("service: realLocalSort and altEstimator apply to the sorts and select only")
	}
	// Resolve the topology. Algorithms that imply one force it
	// (torussort -> torus, cliqueroute -> clique); the Torus flag is the
	// pre-topology spelling of topology=torus and must agree when both
	// are given. After this block the canonical Topology is explicit and
	// consistent with Torus.
	switch s.Topology {
	case "", TopologyMesh, TopologyTorus, TopologyClique:
	default:
		return s, fmt.Errorf("service: unknown topology %q", s.Topology)
	}
	if s.Alg == AlgCliqueRoute {
		if s.Topology == TopologyMesh || s.Topology == TopologyTorus {
			return s, fmt.Errorf("service: cliqueroute runs on the clique, not topology %q", s.Topology)
		}
		s.Topology = TopologyClique
	} else if s.Topology == TopologyClique {
		return s, fmt.Errorf("service: alg %s runs on meshes and tori; the clique workload is alg=cliqueroute", s.Alg)
	}
	if s.Topology == TopologyClique {
		return s.canonicalizeClique(ceilings)
	}
	if s.Alg == AlgTorusSort {
		s.Torus = true
	}
	switch s.Topology {
	case TopologyMesh:
		if s.Torus {
			return s, fmt.Errorf("service: topology mesh conflicts with torus=true (alg %s)", s.Alg)
		}
	case TopologyTorus:
		s.Torus = true
	}
	if s.Torus {
		s.Topology = TopologyTorus
	} else {
		s.Topology = TopologyMesh
	}
	if s.D < 1 || s.D > MaxDim {
		return s, fmt.Errorf("service: dimension d=%d out of range [1,%d]", s.D, MaxDim)
	}
	if s.N < 2 {
		return s, fmt.Errorf("service: side n=%d out of range (must be ≥ 2)", s.N)
	}
	if ceilings && s.N > MaxSide {
		return s, fmt.Errorf("service: side n=%d out of range [2,%d]", s.N, MaxSide)
	}
	n := 1
	for i := 0; i < s.D; i++ {
		n *= s.N
		if ceilings && n > MaxProcessors {
			return s, fmt.Errorf("service: n^d = %d^%d exceeds the %d-processor ceiling", s.N, s.D, MaxProcessors)
		}
		// The engine indexes its N*2d out-link slots with int32.
		if n > math.MaxInt32/(2*s.D) {
			return s, fmt.Errorf("service: n^d = %d^%d exceeds the engine's int32 arena", s.N, s.D)
		}
	}
	if ceilings && s.Alg == AlgOddEven && n > MaxOddEvenProcessors {
		return s, fmt.Errorf("service: n^d = %d^%d exceeds the %d-processor ceiling of alg=oddeven", s.N, s.D, MaxOddEvenProcessors)
	}
	if s.Alg == AlgCopy && s.Torus {
		return s, fmt.Errorf("service: copy is the mesh algorithm; use torussort on tori")
	}
	// Timed traffic and the two whole-mesh sorting baselines use no block
	// machinery; a block side would be dead weight in the cache key.
	blockless := s.Alg == AlgTraffic || s.Alg == AlgOddEven || s.Alg == AlgShear
	if blockless {
		if s.B != 0 {
			return s, fmt.Errorf("service: block side applies to the sorting and routing algorithms, not alg=%s", s.Alg)
		}
	} else {
		if s.B == 0 {
			if s.N%4 == 0 {
				s.B = 4
			} else {
				s.B = s.N / 2
			}
		}
		if s.B < 1 || s.N%s.B != 0 {
			return s, fmt.Errorf("service: block side b=%d must divide n=%d", s.B, s.N)
		}
	}
	if s.K == 0 {
		s.K = 1
	}
	if s.K < 0 {
		return s, fmt.Errorf("service: k=%d out of range (must be ≥ 1)", s.K)
	}
	if ceilings && s.K*n > MaxPackets {
		return s, fmt.Errorf("service: k=%d out of range (k*N must be in [1,%d])", s.K, MaxPackets)
	}
	if s.K > 1 && s.Alg != AlgSimple {
		if s.Alg == AlgTraffic {
			return s, fmt.Errorf("service: alg traffic takes its multiplicity from the load DSL (e.g. load=%q), not k=%d", fmt.Sprintf("k:%d", s.K), s.K)
		}
		return s, fmt.Errorf("service: alg %s supports only k=1 (got k=%d); use simple for k-k", s.Alg, s.K)
	}
	if blockless {
		switch s.Indexing {
		case "", IndexingNone:
			s.Indexing = IndexingNone
		default:
			return s, fmt.Errorf("service: indexing %q has no meaning for alg=%s (it uses no blocked order)", s.Indexing, s.Alg)
		}
	} else {
		switch s.Indexing {
		case "":
			s.Indexing = IndexingBlockedSnake
		case IndexingBlockedSnake:
		default:
			return s, fmt.Errorf("service: unknown indexing %q (the algorithms run on %q)", s.Indexing, IndexingBlockedSnake)
		}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Alg == AlgRoute || s.Alg == AlgGreedyRoute {
		switch s.Perm {
		case "":
			s.Perm = "random"
		case "random", "reversal", "transpose", "hotspot":
		default:
			return s, fmt.Errorf("service: unknown perm %q", s.Perm)
		}
	} else if s.Perm != "" {
		return s, fmt.Errorf("service: perm applies to alg=greedyroute and alg=route only")
	}
	if s.Alg == AlgGreedyRoute {
		switch s.Policy {
		case "", "greedy", "dimorder":
		default:
			return s, fmt.Errorf("service: unknown policy %q (greedy|dimorder)", s.Policy)
		}
		switch s.Classes {
		case "":
			s.Classes = "local"
		case "zero", "random", "local":
		default:
			return s, fmt.Errorf("service: unknown classes %q (zero|random|local)", s.Classes)
		}
	}
	if s.Alg == AlgTraffic {
		ld, err := traffic.ParseLoad(s.Load)
		if err != nil {
			return s, fmt.Errorf("service: %w", err)
		}
		// Admission ceiling: a node sends at most one packet per demand
		// slot, so total packets are bounded by n times the per-node send
		// multiplicity (1 for the 1-1 family, k resp. ℓ otherwise).
		per := 1
		switch ld.Demand {
		case traffic.KRelation:
			per = ld.K
		case traffic.LKRelation:
			per = ld.L
		}
		if ceilings && per*n > MaxPackets {
			return s, fmt.Errorf("service: load %q injects up to %d packets, over the %d ceiling", s.Load, per*n, MaxPackets)
		}
		sc, err := traffic.ParseSchedule(s.Inject)
		if err != nil {
			return s, fmt.Errorf("service: %w", err)
		}
		horizon := int64(0)
		switch sc.Arrival {
		case traffic.Window:
			horizon = int64(sc.Span)
		case traffic.Trickle:
			horizon = int64(float64(per*n-1) / sc.Rate)
		}
		if ceilings && horizon > MaxInjectHorizon {
			return s, fmt.Errorf("service: inject %q schedules arrivals out to step %d, over the %d-step horizon", s.Inject, horizon, MaxInjectHorizon)
		}
		// Canonical DSL forms, so equivalent spellings ("k:4" vs "k:k=4")
		// share one cache key.
		s.Load = ld.String()
		s.Inject = sc.String()
	} else if s.Load != "" || s.Inject != "" {
		return s, fmt.Errorf("service: load and inject apply to alg=traffic only")
	}
	if s.Alg == AlgSelect {
		if s.Target == 0 {
			s.Target = n / 2
		}
		if s.Target < 0 || s.Target >= n {
			return s, fmt.Errorf("service: target rank %d out of range [0,%d)", s.Target, n)
		}
	} else if s.Target != 0 {
		return s, fmt.Errorf("service: target applies to alg=select only")
	}
	if s.DeadlineMS < 0 || s.DeadlineMS > MaxDeadlineMS {
		return s, fmt.Errorf("service: deadline_ms=%d out of range [0,%d]", s.DeadlineMS, MaxDeadlineMS)
	}
	if s.Faults < 0 || s.Faults >= 1 {
		return s, fmt.Errorf("service: fault rate %g out of range [0,1)", s.Faults)
	}
	if s.Faults == 0 {
		s.FaultSeed = 0 // no plan: the seed is not part of the canonical form
	} else if s.FaultSeed == 0 {
		s.FaultSeed = 1
	}
	// The whole-mesh baselines only compare-exchange neighbours; with no
	// routing phase, a fault plan or stranding budget would be ignored.
	if (s.Alg == AlgOddEven || s.Alg == AlgShear) && (s.Faults != 0 || s.Patience != 0) {
		return s, fmt.Errorf("service: faults and patience apply to the routing algorithms, not alg=%s", s.Alg)
	}
	// The sorting algorithms have divisibility constraints beyond the
	// ones above (even block count, block volume divisible by block
	// count); surface them at admission time instead of as a failed job.
	if sortsKeys(s.Alg) {
		cfg := core.Config{Shape: s.Shape(), BlockSide: s.B, K: s.K}
		if err := cfg.Validate(); err != nil {
			return s, fmt.Errorf("service: %w", err)
		}
	}
	return s, nil
}

// canonicalizeClique validates a clique spec (alg=cliqueroute; the
// caller has already resolved Topology to "clique"). The mesh-only
// fields — Torus, B, a blocked indexing, the mesh destination patterns,
// a selection target — have no clique meaning and are rejected rather
// than silently ignored.
func (s JobSpec) canonicalizeClique(ceilings bool) (JobSpec, error) {
	if s.Torus {
		return s, fmt.Errorf("service: the clique has no torus variant")
	}
	if s.D != 0 && s.D != 1 {
		return s, fmt.Errorf("service: clique dimension d=%d (the clique is flat; omit d or use 1)", s.D)
	}
	s.D = 1
	if s.N < 2 {
		return s, fmt.Errorf("service: clique size n=%d out of range (must be ≥ 2)", s.N)
	}
	if ceilings && s.N > MaxCliqueNodes {
		return s, fmt.Errorf("service: clique size n=%d out of range [2,%d]", s.N, MaxCliqueNodes)
	}
	if err := engine.CheckTopology(topo.NewClique(s.N)); err != nil {
		return s, fmt.Errorf("service: %w", err)
	}
	if s.B != 0 {
		return s, fmt.Errorf("service: block side applies to mesh/torus algorithms only")
	}
	if s.K == 0 {
		s.K = 1
	}
	if s.K < 0 {
		return s, fmt.Errorf("service: clique relation k=%d out of range (must be ≥ 1)", s.K)
	}
	if ceilings && s.K > MaxCliqueK {
		return s, fmt.Errorf("service: clique relation k=%d out of range [1,%d]", s.K, MaxCliqueK)
	}
	switch s.Indexing {
	case "":
		s.Indexing = IndexingNone
	case IndexingNone:
	default:
		return s, fmt.Errorf("service: indexing %q has no meaning on the clique", s.Indexing)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Perm {
	case "":
		s.Perm = "random"
	case "random":
	default:
		return s, fmt.Errorf("service: clique perm %q (the destination patterns are mesh notions; the clique workload is a random k-relation)", s.Perm)
	}
	if s.Target != 0 {
		return s, fmt.Errorf("service: target applies to alg=select only")
	}
	if s.Load != "" || s.Inject != "" {
		return s, fmt.Errorf("service: load and inject apply to alg=traffic only")
	}
	if s.DeadlineMS < 0 || s.DeadlineMS > MaxDeadlineMS {
		return s, fmt.Errorf("service: deadline_ms=%d out of range [0,%d]", s.DeadlineMS, MaxDeadlineMS)
	}
	if s.Faults < 0 || s.Faults >= 1 {
		return s, fmt.Errorf("service: fault rate %g out of range [0,1)", s.Faults)
	}
	if s.Faults == 0 {
		s.FaultSeed = 0
	} else if s.FaultSeed == 0 {
		s.FaultSeed = 1
	}
	return s, nil
}

// Shape returns the network shape of a mesh or torus spec. It is
// meaningless for clique specs (the clique is not a grid.Shape);
// topology-generic callers use Topo instead.
func (s JobSpec) Shape() grid.Shape {
	if s.Torus || s.Alg == AlgTorusSort {
		return grid.NewTorus(s.D, s.N)
	}
	return grid.New(s.D, s.N)
}

// Topo returns the network topology the spec runs on: runner leasing
// and Run both build from it.
func (s JobSpec) Topo() topo.Topology {
	if s.Topology == TopologyClique || s.Alg == AlgCliqueRoute {
		return topo.NewClique(s.N)
	}
	return topo.FromShape(s.Shape())
}

// ShapeKey is the runner-leasing key: jobs with equal ShapeKeys can
// share a warm runner with nothing but a Reset in between.
func (s JobSpec) ShapeKey() string {
	if s.Topology == TopologyClique || s.Alg == AlgCliqueRoute {
		return fmt.Sprintf("clique/%d", s.N)
	}
	kind := TopologyMesh
	if s.Torus || s.Alg == AlgTorusSort {
		kind = TopologyTorus
	}
	return fmt.Sprintf("%s/%d/%d", kind, s.D, s.N)
}

// Key returns the cache key: a sha256 over the canonical field values.
// The spec must already be canonical (Key on a non-canonical spec would
// hash defaults as distinct from their explicit forms).
func (s JobSpec) Key() string {
	key := fmt.Sprintf(
		"alg=%s topo=%s d=%d n=%d torus=%t b=%d k=%d idx=%s seed=%d perm=%s load=%s inject=%s target=%d faults=%g fseed=%d patience=%d",
		s.Alg, s.Topology, s.D, s.N, s.Torus, s.B, s.K, s.Indexing, s.Seed, s.Perm, s.Load, s.Inject, s.Target, s.Faults, s.FaultSeed, s.Patience)
	// Later fields are appended only when set, so every spec that
	// predates them keeps its key (and its journaled, cached results).
	if s.Policy != "" {
		key += " policy=" + s.Policy
	}
	if s.Classes != "" {
		key += " classes=" + s.Classes
	}
	if s.RealLocalSort {
		key += " real=true"
	}
	if s.AltEstimator {
		key += " alt=true"
	}
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// FaultPlan builds the spec's seeded random fault plan, or returns nil
// for a perfect network (Faults == 0).
func (s JobSpec) FaultPlan() *engine.FaultPlan {
	switch {
	case s.Faults == 0:
		return nil
	case s.Topology == TopologyClique || s.Alg == AlgCliqueRoute:
		return engine.RandomFaultPlanTopo(s.Topo(), s.Faults, s.FaultSeed)
	}
	return engine.RandomFaultPlan(s.Shape(), s.Faults, s.FaultSeed)
}
