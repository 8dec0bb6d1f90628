// Package engine implements the synchronous multi-packet network model
// of the paper: processors operating in lock-step, each holding a small
// number of packets, each able to transmit one packet per directed link
// per step. The network's wiring is a topo.Topology — the paper's
// N = n^d mesh/torus is the default and the performance target, and the
// same step loop drives any topology satisfying the link-identity
// contract (the congested clique ships as the first non-mesh instance).
//
// The engine separates what the machine does (move packets along links
// under a routing policy, one per link per step) from what the algorithms
// decide (destinations, routing classes, local rearrangements). Global
// routing phases are simulated step-accurately; local "oracle" phases
// (block-local sorts, whose o(n) cost the paper treats as a black box)
// rearrange held packets atomically and advance the clock by a charged
// cost (see internal/core).
//
// # Topologies
//
// A Net is built over a topo.Topology (New takes the historical
// grid.Shape and wraps it; NewNet takes any topology). The step loop
// needs exactly the interface's link-identity contract: every processor
// exposes a uniform window of link ids, Neighbor maps a directed link to
// its receiver and a receiver-side inbox slot unique per directed edge
// (which is what makes the send phase's plain-store inbox writes safe),
// and Dist is exact. The mesh keeps its precomputed-stride arithmetic as
// an inline fast path — the step loop recognizes *topo.Mesh by type and
// performs no interface calls on the transit path — while other
// topologies route through the interface; both paths are covered by the
// zero-allocation guards. CheckTopology enforces the data-plane
// capacity limits (link ids fit an int16, rank*links fits an int32).
//
// # The two-phase barrier model
//
// Each simulated step runs in two phases separated by barriers:
//
//   - Send: every processor with moving packets asks the Policy for the
//     link each packet wants (the answer is cached in the queue entry —
//     see Policy purity below), grants each link to the highest-priority
//     requester (farthest-to-go first, ties to the lowest id — the
//     paper's contention rule), and writes each winner into its
//     *receiver's* inbox slot for the link it traveled. Each (receiver,
//     link) inbox slot has exactly one possible writer per step — the
//     unique processor whose link l points at that receiver — so sends
//     from different shards never collide. The sender also sets the
//     receiver's bit in a per-worker delivery bitmap.
//   - Deliver: every processor flagged in the ORed delivery bitmaps
//     drains its own inbox strip (one slot per incoming link) into its
//     queue. Only receiver-owned state is written. On a 2-side torus
//     both directions of a dimension reach the same neighbor; the two
//     slots model the double edge.
//
// Because each phase writes disjoint, single-owner state — and the
// barrier between phases publishes one phase's plain writes to the
// next — sharded parallel execution is observationally identical to
// sequential execution: Route returns bit-identical results and final
// packet placements for any worker count and any shard size.
//
// Packets in flight are represented by 16-byte pointer-free queue
// entries (id, destination, remaining distance, class, cached link);
// the cold identity fields live in a packet arena indexed by id, and
// patience/overshoot accounting lives in side slabs touched only on
// stranding and completion paths. The hot step loop therefore streams
// over compact contiguous memory. See DESIGN.md for the measurements
// behind this layout.
//
// # Worker pool and active-shard tracking
//
// Processors are grouped into contiguous shards, the unit of scheduling.
// The step loop tracks liveness at two resolutions: per shard, the send
// phase visits only shards holding moving packets (a count maintained by
// the shard's owning worker) and the delivery phase visits only shards a
// sender flagged as receiving this step; per processor, bitmaps refine
// the scan inside a live shard — a moving-queue bitmap steers the send
// phase straight to non-empty queues, and the per-worker delivery
// bitmaps steer the deliver phase straight to flagged receivers. Late in
// a phase, when most of the n^d processors are idle, a step touches only
// the few processors where packets remain instead of scanning the whole
// network. The bitmaps are written with plain stores (the inter-phase
// barrier publishes them); the one cross-shard clear uses a masked
// atomic only when a 64-bit word straddles a shard boundary.
//
// Shard work executes on a Pool of persistent workers synchronized by a
// sense-reversing atomic barrier (an epoch counter publishes work, an
// atomic countdown reports completion; waiters spin briefly and then
// park on per-worker wake channels — see Pool). The Route caller
// participates as worker 0, and work-stealing over the live-shard list
// balances uneven shards. Shards shrink automatically when the network
// is small or the worker count high, so a skewed active set — every
// moving packet clustered in one region of a large mesh — still splits
// across the pool instead of serializing on one worker
// (Net.ShardShift overrides the sizing). A pool can (and should) be
// shared across all phases of a multi-phase algorithm via Net.Pool;
// without one, Route runs with one worker on the caller's goroutine.
// With one worker — or one live shard — the step loop runs entirely
// inline with no goroutines or atomic barrier crossings.
//
// # Exact vs. sampled statistics
//
// All statistics on RouteResult are exact, not sampled: Steps,
// Delivered, Hops, MaxDist and the overshoot aggregates are maintained
// per event. MaxQueue is exact too, but subtly so: per-processor
// occupancy only grows at activation or on receiving, so sampling every
// processor once at activation and every receiver after its pulls
// captures the true high-water mark. Link-load counters (SetCountLoads)
// are exact per traversal but cover only the phases routed while
// counting was enabled. The wall-clock throughput counters (Elapsed,
// WorkerBusy, and the derived StepsPerSec/WorkerUtilization) measure the
// host machine, vary run to run, and are excluded from the determinism
// guarantee.
//
// # Policy purity
//
// Policies are called concurrently from shard workers and may be called
// any number of times per packet per step, so NextLink must be a pure
// function of (rank, dst, class) with no side effects and no dependence
// on call order. Purity is also what lets the engine cache NextLink's
// answer in the queue entry and re-ask only when the packet moves: a
// stalled packet's cached link is, by purity, still the link it wants. It must also be monotone — every requested move reduces
// the packet's distance to its destination — unless it implements
// DetourPolicy, which switches the engine to recomputing distances after
// every hop. It must never route off a mesh boundary. The engine checks
// monotonicity and boundary legality and converts violations — and any
// panic escaping NextLink — into an error returned from Route: a buggy
// policy fails one run, never the process. No code path panics the
// process from a worker goroutine.
//
// # Fault model and graceful degradation
//
// A FaultPlan injects failures into a phase (RouteOpts.Faults):
// permanent link failures, transient link outages over clock intervals,
// and dead processors (all incident edges down). Faults live on physical
// edges — failing a link takes down both directed sides — and are
// enforced at grant time: a packet whose requested link is down simply
// does not move that step, so waiting is the automatic response to a
// transient outage. Plans are immutable during routing and every
// constructor is deterministic, so faulted runs keep the bit-identical
// cross-worker guarantee. Policies that want to route around failures
// query PermDown (permanent faults only — transient outages stay
// invisible, keeping policies pure) and typically implement
// DetourPolicy.
//
// Degradation is layered so a blocked phase always terminates in a
// diagnosable state rather than spinning to the MaxSteps cliff:
//
//   - Patience (per packet): a packet that goes Patience consecutive
//     steps without a new personal-best distance — whether parked or
//     circling a blocked region — is parked in the held queue as
//     stranded and reported in RouteResult.Stranded with diagnostics
//     (rank, remaining distance, wanted and blocked links). Stranding is
//     not an error: the phase continues, and a later phase re-activates
//     stranded packets automatically. Route returns a nil error when
//     every packet is delivered or stranded.
//   - NoProgress (per phase): if the total remaining distance over all
//     moving packets stops reaching new minima for NoProgress steps, the
//     phase aborts with a *DegradedError carrying a quiescent snapshot
//     of the stuck packets (RouteResult.Stuck). Stranding lowers the
//     total, so with patience enabled the watchdog only fires if
//     degradation itself stalls. The MaxSteps abort returns the same
//     error shape, alongside the partial RouteResult.
//   - Paranoid (per step): an opt-in invariant checker — packet
//     conservation, no packet left on a link across a barrier, held
//     packets at their destination or explicitly stranded, distance
//     budgets equal to true distances — for debugging policies and the
//     engine itself.
//
// After a degraded abort the network is quiescent and conserved (no
// packet mid-link), so callers can inspect it, repair the plan, and
// route again.
//
// # Allocation
//
// A warm route (Reset and re-route on a network whose arena, queues and
// step scratch an earlier run already grew) allocates nothing on its
// transit path, at any worker count, on the fused and the two-phase
// step, with or without timed arrivals; the DoesNotAllocate tests guard
// this. It allocates only on the stranding and degraded paths: each
// stranded or stuck packet gets a PacketDiag with its own Wants and
// Blocked slices, and RouteResult.Stranded or Stuck grows to hold it.
package engine
