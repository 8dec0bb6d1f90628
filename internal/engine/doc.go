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
// its receiver, and Dist is exact. The mesh keeps its precomputed-stride
// arithmetic as an inline fast path — the kernel recognizes *topo.Mesh
// once per phase and performs no interface calls on the transit path —
// while other topologies resolve receivers through the interface; both
// are covered by the zero-allocation guards. CheckTopology enforces the
// data-plane capacity limits (link ids fit an int16, rank*links fits an
// int32).
//
// # The step kernel
//
// Each simulated step is one sweep over the processors holding moving
// packets, in ascending rank order. At each processor the moving
// packets request the link the Policy wants for them (the answer is
// cached in the queue entry — see Policy purity below), each link is
// granted to the highest-priority requester (farthest-to-go first, ties
// to the lowest id — the paper's contention rule), and the winners are
// forwarded in link-id order: appended to their receiver's queue, or
// filed as held when the hop completes the journey.
//
// A packet moves at most one hop per step. Entries appended during the
// current step sit above a per-processor eligibility watermark and are
// excluded from that processor's contest until the next step, so every
// contest sees exactly the queue the step started with — the
// synchronous model of the paper, simulated in one pass with no
// transfer buffer between a send and a deliver phase.
//
// The rarer modes are decided once per phase and kept off the per-hop
// path of the same kernel: patience accounting and stranding run as a
// pass over the moving queues just before the sweep, faults as one
// grant-time check, non-mesh receivers, detour distances and link-load
// counting through one general forward, and links numbered 64 and up
// (only a clique has them) through a second contest table whose winners
// travel like forwards across a cut (see Range ownership).
//
// # Range ownership
//
// With more than one worker, the coordinator cuts the ranks before
// every step into one contiguous range per worker, at multiples of
// max(64, shard size) ranks, balancing the number of processors with
// moving packets (counted per shard). Each worker sweeps its own range.
// A forward whose receiver lies in the same range is applied on the
// spot; one across a cut is parked in the sender's outbox for the
// receiver's owner. After the sweep barrier each owner drains the
// outboxes addressed to it, worker by worker. Every piece of mutable
// state — a queue, a bitmap word, a shard counter, a packet's
// accounting record — has exactly one writer per phase of the step, so
// the bitmaps are plain-access and the pool barrier publishes all
// writes. When the moving processors all fall in one range, or are too
// few to pay for the barrier, worker 0 sweeps every rank inline. The
// worker pool (see Pool) is shared across phases via Net.Pool; without
// one, Route runs with one worker on the caller's goroutine.
//
// # Determinism
//
// Route returns the same RouteResult (minus the wall-clock counters),
// and every step leaves the same multiset of packets at every processor,
// moving and held, for every worker count and shard size: the contest
// is a strict total order, so the order of a queue never decides who
// wins a link. The order inside a queue or held list is fixed for a
// given worker count (and shard size) but unspecified across worker
// counts — a receiver gets its parked arrivals (across a cut, or over a
// clique link numbered 64 and up) after the others. Consumers that need
// an order impose it (the sorting algorithms order held packets by key
// and id).
//
// Packets in flight are represented by 16-byte pointer-free queue
// entries (id, destination, remaining distance, class, cached link);
// the cold identity fields live in a packet arena indexed by id, and
// patience/overshoot accounting lives in side slabs touched only on
// stranding and completion paths. The hot step loop therefore streams
// over compact contiguous memory. See DESIGN.md for the measurements
// behind this layout.
//
// # Active-set tracking
//
// The kernel tracks liveness at two resolutions: per shard (a
// contiguous block of ranks; Net.ShardShift overrides the automatic
// sizing), the count of processors with moving packets, which the sweep
// uses to skip idle shards and the coordinator uses to cut the ranges;
// per processor, a moving-queue bitmap that steers the sweep straight to
// non-empty queues. Late in a phase, when most of the n^d processors
// are idle, a step touches only the few processors where packets
// remain instead of scanning the whole network.
//
// # Exact vs. sampled statistics
//
// All statistics on RouteResult are exact, not sampled: Steps,
// Delivered, Hops, MaxDist and the overshoot aggregates are maintained
// per event. MaxQueue is exact too, but subtly so: occupancy is
// sampled at activation and at every processor once its own departures
// for the step are done — at the end of its sweep visit, when a packet
// lands on it after that (or when it had nothing to send), and after
// the drain for a parked arrival — and from then on its queue only
// grows, so the samples capture the true high-water mark. Link-load counters (SetCountLoads)
// are exact per traversal but cover only the phases routed while
// counting was enabled. The wall-clock throughput counters (Elapsed,
// WorkerBusy, and the derived StepsPerSec/WorkerUtilization) measure the
// host machine, vary run to run, and are excluded from the determinism
// guarantee.
//
// # Policy purity
//
// Policies are called concurrently from the workers and may be called
// any number of times per packet per step, so NextLink must be a pure
// function of (rank, dst, class) with no side effects and no dependence
// on call order. Purity is also what lets the engine cache NextLink's
// answer in the queue entry and re-ask only when the packet moves: a
// stalled packet's cached link is, by purity, still the link it wants.
// It must also be monotone — every requested move reduces
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
// A warm route (Reset and re-route on a network whose arena, queues,
// outboxes and step scratch an earlier run already grew) allocates
// nothing on its transit path, at any worker count, inline or split,
// with or without timed arrivals; the DoesNotAllocate tests guard this. It allocates only on the stranding and degraded paths: each
// stranded or stuck packet gets a PacketDiag with its own Wants and
// Blocked slices, and RouteResult.Stranded or Stuck grows to hold it.
package engine
