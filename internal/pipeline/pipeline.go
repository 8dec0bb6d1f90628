package pipeline

import (
	"fmt"
	"sync/atomic"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/radix"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
)

// Phase stat kinds. Local phases may use a custom kind (the in-mesh
// shearsort records "shear"); everything that is not KindRoute counts
// toward OracleSteps, everything that is KindCheck costs zero.
const (
	KindRoute  = "route"
	KindOracle = "oracle"
	KindCheck  = "check"
)

// PhaseStat records one completed phase of a program.
type PhaseStat struct {
	Name  string
	Kind  string // "route", "oracle", "shear", or "check"
	Steps int
	// Bound is the phase's step bound from the paper (0 = none stated):
	// informational, carried into traces, experiment tables and, for
	// route phases, the sum that is the Report's default Bound.
	Bound int
	// Routing phases also record:
	MaxDist      int   // max activation distance
	MaxOvershoot int   // max delivery slack beyond the packet's distance
	MaxQueue     int   // peak per-processor occupancy
	Hops         int64 // total link traversals; int64 — a k-k phase at N≈2M wraps 32 bits
	Stranded     int   // packets parked by the patience budget this phase

	// Sojourn summarizes per-packet latency when the run enabled it via
	// Config.Route.Sojourn (the zero summary otherwise). Cumulative over
	// the caller's histogram, like engine.RouteResult.Sojourn.
	Sojourn stats.LatencySummary

	// Engine throughput for the phase (wall-clock; varies run to run).
	engine.Throughput
}

// Observer receives every PhaseStat as its phase completes, in program
// order. It runs on the caller's goroutine with the network quiescent.
type Observer func(PhaseStat)

// Report is the one record of a run, from the runner to the wire. The
// runner folds every completed phase into it (add); the algorithm's entry
// point then labels it (Algorithm, Delivered, Sorted), overrides Bound
// where its theorem states one for the whole run, and fills in whichever
// Extras it measures. internal/service encodes it as the JSON result.
type Report struct {
	Algorithm string
	// Delivered is the run's success criterion: sortedness for the sorts,
	// full delivery for routing, a certified answer for selection.
	Delivered bool
	Sorted    bool
	// Bound is the paper's step bound for the run. The fold sets it to the
	// sum of the route phases' bounds; routing (D + 2nu), selection (D)
	// and the clique (k) replace it with their theorem's figure.
	Bound int

	TotalSteps  int // final simulated clock (includes aborted-phase steps)
	RouteSteps  int // steps spent in simulated routing phases
	OracleSteps int // steps charged for local (oracle) phases
	MaxQueue    int // peak per-processor packet count across the run
	Stranded    int // packets stranded by the patience budget, summed over phases

	// Sojourn is the latency summary of the last route phase (the zero
	// summary unless the run enabled sojourn accounting).
	Sojourn stats.LatencySummary

	Extras
	Phases []PhaseStat
}

// Extras are the algorithm-specific figures of a Report; an algorithm
// that does not measure one leaves it zero.
type Extras struct {
	MergeRounds int // odd-even block merge rounds (shear iterations for alg=shear)
	// MaxPairDist is CopySort/TorusSort's largest distance between a
	// packet and its copy after the center sort (Lemmas 3.3/3.4).
	MaxPairDist    int
	FallbackRounds int // whole-mesh shearsort's fallback transposition rounds

	Nu          int // two-phase routing: requested slack
	EffectiveNu int // slack actually needed (>= Nu when a block pair forced a relaxation)

	Target     int   // selection: requested rank
	Value      int64 // key delivered to the target processor
	Candidates int   // packets whose estimated rank fell within the sampling window
}

func (t *Report) add(st PhaseStat) {
	t.Phases = append(t.Phases, st)
	switch st.Kind {
	case KindRoute:
		t.RouteSteps += st.Steps
		t.Stranded += st.Stranded
		t.Bound += st.Bound
		t.Sojourn = st.Sojourn
	case KindCheck:
		// Zero-cost barrier.
	default:
		t.OracleSteps += st.Steps
	}
	if st.MaxQueue > t.MaxQueue {
		t.MaxQueue = st.MaxQueue
	}
}

// Phase is one step of a declarative algorithm program. The concrete
// kinds are Route, Local, Loop, and Inspect.
type Phase interface {
	run(r *Runner) error
}

// Route is a simulated global routing phase: Prepare (optional) assigns
// destinations/classes on the quiescent network, then the engine routes
// every activated packet to its destination under the runner's policy
// and fault options.
type Route struct {
	Name string
	// Bound is the paper's step bound for this phase (informational;
	// recorded on the PhaseStat). 0 means none stated.
	Bound int
	// Prepare runs before the step loop; it may create and inject new
	// packets via Runner.Net.
	Prepare func(net *engine.Net) error
}

// Local is an oracle-costed local computation: Apply rearranges held
// packets atomically and returns the cost to charge to the clock
// (DESIGN.md substitution 2). Apply may also advance the clock itself;
// the recorded steps are the measured advance plus the returned cost.
type Local struct {
	Name  string
	Kind  string // "" means KindOracle; the in-mesh shearsort uses "shear"
	Apply func(net *engine.Net) (cost int, err error)
}

// Loop repeats a Local-like round up to Max times, recording one
// PhaseStat per executed round. Round returns done=true to stop before
// Max without recording that round (the "already sorted" check of the
// paper's cleanup loops).
type Loop struct {
	Name  string
	Kind  string // "" means KindOracle
	Max   int
	Round func(net *engine.Net, round int) (cost int, done bool, err error)
}

// Inspect is a zero-cost barrier recorded as a "check" stat: a decision
// the paper charges to the o(n) local phases at zero movement cost
// (pair resolution, target identification; DESIGN.md substitution 3).
type Inspect struct {
	Name string
	Fn   func(net *engine.Net) error
}

// Config describes the fixed context a Runner gives every phase of a
// program.
type Config struct {
	// Shape names the mesh/torus to build. Ignored when Topo is set.
	Shape grid.Shape
	// Topo, if non-nil, selects an arbitrary network topology instead of
	// the mesh/torus named by Shape. Mesh-specific phases (every sorting
	// algorithm, anything using Runner.InjectKeys's shape arithmetic
	// indirectly) require a mesh topology; generic routing phases run on
	// any topology.
	Topo topo.Topology
	// ShardShift overrides the engine's shard sizing (log2 processors per
	// shard; 0 means automatic). See engine.Net.ShardShift for the
	// clamping rules. Exposed for benchmarking shard-size sensitivity.
	ShardShift int
	// Pool optionally supplies a persistent engine worker pool shared by
	// every routing phase (and by other runners using the same pool).
	// The caller owns its lifecycle; nil means one worker, the caller's
	// goroutine.
	Pool *engine.Pool
	// Policy routes every Route phase; nil means no Route phases may run.
	Policy engine.Policy
	// Route carries the engine options shared by every routing phase:
	// fault plan, patience/stranding budget, livelock watchdog, MaxSteps,
	// paranoid checking.
	Route engine.RouteOpts
	// Observer, if set, receives every PhaseStat as it completes.
	Observer Observer
}

// Runner executes phase programs on one network. It owns net
// construction, packet injection, and all stat accumulation; algorithms
// own only their phase programs.
type Runner struct {
	cfg  Config
	net  *engine.Net
	rep  Report
	last engine.RouteResult
	srts []*radix.Sorter  // per-worker-slot sorters, grown on demand
	pkts []*engine.Packet // InjectKeys handle slab, reused across runs

	// RunBlocks parallel-dispatch state, hoisted here so a warm phase's
	// fan-out allocates nothing: the stealing closure is built once and
	// reads these fields, and the cursor lives in the runner instead of
	// escaping per call.
	rbFn     func(w, i int)
	rbN      int
	rbChunk  int
	rbCursor atomic.Int64
	rbSteal  func(w int)

	// Stash is a cache slot for algorithm packages to keep warm
	// shape-derived state across runs on the same runner (compiled phase
	// programs, indexing schemes, block scratch slabs). Reset preserves
	// it; the owner must key whatever it stores by everything the cached
	// state depends on and rebuild on mismatch. The runner itself never
	// reads it.
	Stash any
}

// New builds a quiescent network for the configuration.
func New(cfg Config) *Runner {
	var net *engine.Net
	if cfg.Topo != nil {
		net = engine.NewNet(cfg.Topo)
	} else {
		net = engine.New(cfg.Shape)
	}
	net.Pool = cfg.Pool
	net.ShardShift = cfg.ShardShift
	return &Runner{cfg: cfg, net: net}
}

// Net exposes the runner's network for packet creation, injection, and
// inspection between (or within) phases.
func (r *Runner) Net() *engine.Net { return r.net }

// Sorter returns the worker-0 radix sorter: WorkerSorter(0). It is the
// right sorter for serial code running on the caller's goroutine between
// phases (final-key extraction, sortedness scans). Code executing inside
// RunBlocks must use WorkerSorter with its own slot instead — two slots
// never run concurrently, but slot 0 may, and a sorter is single-owner
// scratch: a sort must finish before the same sorter's next Prepare.
func (r *Runner) Sorter() *radix.Sorter { return r.WorkerSorter(0) }

// BlockWorkers returns the number of worker slots RunBlocks fans block
// work across: the pool's worker count, or 1 when the runner has no
// pool (the engine then also steps on the caller's goroutine alone).
func (r *Runner) BlockWorkers() int {
	if r.cfg.Pool != nil {
		return r.cfg.Pool.Workers()
	}
	return 1
}

// WorkerSorter returns the radix sorter of one RunBlocks worker slot.
// Each slot's sorter is touched by at most one goroutine at a time (slot
// w belongs to pool worker w for the duration of a RunBlocks call), so
// per-block sorts inside RunBlocks need no locking and every sort in a
// run reuses the same per-slot scratch slabs — warm-runner local phases
// allocate nothing. Sorters survive Reset, including a Reset to a pool
// of a different size.
func (r *Runner) WorkerSorter(w int) *radix.Sorter {
	for len(r.srts) <= w {
		r.srts = append(r.srts, new(radix.Sorter))
	}
	return r.srts[w]
}

// runBlocksChunks is the work-stealing granularity multiplier: the index
// space is claimed in chunks of roughly n/(workers*runBlocksChunks), so
// uneven per-item costs (blocks of different occupancy, merge pairs of
// different sizes) rebalance across workers without a per-item atomic.
const runBlocksChunks = 4

// RunBlocks executes fn(w, i) exactly once for every index i in [0, n),
// fanned across the runner's persistent pool with dynamic chunked
// work-stealing; it returns when all n calls have completed. w is the
// worker slot in [0, BlockWorkers()) the call runs on — pass it to
// WorkerSorter (or index other per-slot scratch) for lock-free reuse.
// With no pool, a 1-worker pool, or a single index, fn runs serially on
// the caller's goroutine as slot 0.
//
// Determinism contract: which slot processes which index varies from run
// to run, so fn must write only to state determined by i (disjoint
// blocks, per-index result rows) or scratch owned by slot w. Phases
// built this way produce byte-identical results at every worker count —
// the property TestLocalPhasesDeterministicAcrossWorkers pins down.
func (r *Runner) RunBlocks(n int, fn func(w, i int)) {
	pool := r.cfg.Pool
	if pool == nil || pool.Workers() == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// Materialize every slot's sorter up front: WorkerSorter grows the
	// slot slice, and inside pool.Run it is called concurrently.
	r.WorkerSorter(pool.Workers() - 1)
	chunk := n / (pool.Workers() * runBlocksChunks)
	if chunk < 1 {
		chunk = 1
	}
	r.rbFn, r.rbN, r.rbChunk = fn, n, chunk
	r.rbCursor.Store(0)
	if r.rbSteal == nil {
		r.rbSteal = func(w int) {
			fn, n, chunk := r.rbFn, r.rbN, int64(r.rbChunk)
			for {
				hi := int(r.rbCursor.Add(chunk))
				lo := hi - int(chunk)
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(w, i)
				}
			}
		}
	}
	pool.Run(r.rbSteal)
	r.rbFn = nil // drop the reference; the next call re-arms it
}

// Reset re-arms the runner (and its network) for a fresh problem under a
// new configuration, reusing all learned storage: the packet arena, the
// per-processor queues, the engine's step scratch, and the radix slabs.
// The accumulated report and the last route result are discarded. This is
// the steady-state entry point: a warm runner re-running a same-shaped
// problem allocates only what the algorithm's own bookkeeping needs.
//
// Every field of the configuration may differ from the previous run's.
// In particular it is safe to reset to a different worker pool (the
// runner holds no reference to the old one; the caller still owns both
// pools' lifecycles), a different fault plan or none at all (fault state
// lives entirely in cfg.Route and in per-phase results, so no stranding
// or outage bookkeeping survives the reset), a different policy or
// observer, and a different shape (the network rebuilds exactly the
// storage the new shape invalidates — see engine.Net.Reset). Reset must
// not be called while a run is in flight on the runner.
func (r *Runner) Reset(cfg Config) {
	r.cfg = cfg
	if cfg.Topo != nil {
		r.net.ResetTopo(cfg.Topo)
	} else {
		r.net.Reset(cfg.Shape)
	}
	r.net.Pool = cfg.Pool
	r.net.ShardShift = cfg.ShardShift
	// Keep the phase-stat slab: the stats of a warm re-run overwrite the
	// previous run's entries in place, so Report().Phases (and any result
	// that aliases it) is valid only until the next run on this runner —
	// callers that outlive that must copy. The service layer's encoder
	// does; so does anything comparing two runs.
	r.rep = Report{Phases: r.rep.Phases[:0]}
	r.last = engine.RouteResult{}
}

// Arm returns the runner a run executes on: the caller's warm runner r
// Reset to cfg, or a fresh one when r is nil. Every entry point that
// accepts an optional warm runner arms it here.
func Arm(r *Runner, cfg Config) *Runner {
	if r == nil {
		return New(cfg)
	}
	r.Reset(cfg)
	return r
}

// Report returns the run's report folded so far. TotalSteps always
// reflects the current clock, so after a mid-program error the report
// carries the completed prefix's phases plus the aborted phase's clock.
// It allocates nothing: Phases aliases the runner's slab.
func (r *Runner) Report() Report {
	t := r.rep
	t.TotalSteps = r.net.Clock()
	if r.net.MaxQueue > t.MaxQueue {
		t.MaxQueue = r.net.MaxQueue
	}
	return t
}

// LastRoute returns the raw engine result of the most recent Route
// phase — partial when that phase aborted — for callers that need the
// full diagnostics (stranded/stuck packet lists, overshoot sums).
func (r *Runner) LastRoute() engine.RouteResult { return r.last }

// InjectKeys creates and injects k packets per processor: packet t of
// processor r carries keys[r*k+t]. This is the canonical sorting input.
// A mismatched key count, a non-positive k, and a network that already
// holds packets (a warm runner that was not Reset) are all reported as
// errors rather than left to index panics downstream.
//
// The returned handle slice is backed by runner-owned storage reused by
// the next InjectKeys call (on a warm runner an injection allocates
// nothing: the arena chunks, the held queues, and this slab all
// survive Reset); copy it to retain handles across runs.
func (r *Runner) InjectKeys(k int, keys []int64) ([]*engine.Packet, error) {
	n := r.net.N()
	if k < 1 {
		return nil, fmt.Errorf("pipeline: InjectKeys needs k >= 1 packets per processor, got k=%d", k)
	}
	// Packet ids are bounded arena indices (engine.CheckCapacity bounds N,
	// but a k-k load multiplies it); reject before the key-count check so
	// callers see the real problem instead of being asked for a slice
	// that could not be indexed anyway.
	if int64(k)*int64(n) > engine.MaxPackets {
		return nil, fmt.Errorf("pipeline: InjectKeys load k*N = %d exceeds the packet id space (%d ids; k=%d, N=%d)",
			int64(k)*int64(n), int64(engine.MaxPackets), k, n)
	}
	if len(keys) != k*n {
		return nil, fmt.Errorf("pipeline: InjectKeys got %d keys, want k*N = %d (k=%d, N=%d on %v)",
			len(keys), k*n, k, n, r.net.Topo)
	}
	if held := r.net.TotalPackets(); held != 0 {
		return nil, fmt.Errorf("pipeline: InjectKeys on a network already holding %d packets; Reset the runner between problems", held)
	}
	if cap(r.pkts) < len(keys) {
		r.pkts = make([]*engine.Packet, len(keys))
	}
	pkts := r.pkts[:len(keys)]
	for rank := 0; rank < n; rank++ {
		for t := 0; t < k; t++ {
			pkts[rank*k+t] = r.net.NewPacket(keys[rank*k+t], rank)
		}
	}
	r.net.Inject(pkts)
	return pkts, nil
}

// Run executes the phases in order, folding stats into the Report and
// reporting each completed phase to the observer. The first phase error
// aborts the program; the error is wrapped with the phase name and the
// report keeps the completed prefix's stats (plus the aborted phase's
// clock in TotalSteps).
//
// When cfg.Route.Cancel is set, Run also polls it between phases, so a
// program whose remaining phases are all local/oracle work still yields:
// Route phases cancel at step boundaries inside the engine, everything
// else at the next phase boundary. A cancelled run returns an error
// satisfying errors.Is(err, engine.ErrCancelled) and the report keeps the
// completed prefix, exactly as for any other mid-program error.
func (r *Runner) Run(prog ...Phase) error {
	for _, ph := range prog {
		if c := r.cfg.Route.Cancel; c != nil {
			select {
			case <-c:
				return fmt.Errorf("pipeline: %w at a phase boundary", engine.ErrCancelled)
			default:
			}
		}
		if err := ph.run(r); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) record(st PhaseStat) {
	r.rep.add(st)
	if r.cfg.Observer != nil {
		r.cfg.Observer(st)
	}
}

func (p Route) run(r *Runner) error {
	if p.Prepare != nil {
		if err := p.Prepare(r.net); err != nil {
			return fmt.Errorf("phase %s: %w", p.Name, err)
		}
	}
	rr, err := r.net.Route(r.cfg.Policy, r.cfg.Route)
	r.last = rr
	if err != nil {
		return fmt.Errorf("phase %s: %w", p.Name, err)
	}
	r.record(PhaseStat{
		Name: p.Name, Kind: KindRoute, Steps: rr.Steps, Bound: p.Bound,
		MaxDist: rr.MaxDist, MaxOvershoot: rr.MaxOvershoot,
		MaxQueue: rr.MaxQueue, Hops: rr.Hops,
		Stranded:   len(rr.Stranded),
		Sojourn:    rr.Sojourn,
		Throughput: rr.Throughput(),
	})
	return nil
}

func (p Local) run(r *Runner) error {
	kind := p.Kind
	if kind == "" {
		kind = KindOracle
	}
	before := r.net.Clock()
	cost, err := p.Apply(r.net)
	if err != nil {
		return fmt.Errorf("phase %s: %w", p.Name, err)
	}
	r.net.AdvanceClock(cost)
	r.record(PhaseStat{Name: p.Name, Kind: kind, Steps: r.net.Clock() - before})
	return nil
}

func (p Loop) run(r *Runner) error {
	kind := p.Kind
	if kind == "" {
		kind = KindOracle
	}
	for round := 0; round < p.Max; round++ {
		before := r.net.Clock()
		cost, done, err := p.Round(r.net, round)
		if err != nil {
			return fmt.Errorf("phase %s round %d: %w", p.Name, round, err)
		}
		if done {
			return nil
		}
		r.net.AdvanceClock(cost)
		r.record(PhaseStat{Name: p.Name, Kind: kind, Steps: r.net.Clock() - before})
	}
	return nil
}

func (p Inspect) run(r *Runner) error {
	if err := p.Fn(r.net); err != nil {
		return fmt.Errorf("phase %s: %w", p.Name, err)
	}
	r.record(PhaseStat{Name: p.Name, Kind: KindCheck})
	return nil
}
