package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"
	"unsafe"

	"meshsort/internal/grid"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
)

// Policy decides, for a packet at a given processor, which outgoing link
// the packet wants next. Links are encoded as dim*2 + dirBit where dirBit
// 0 means direction -1 and dirBit 1 means direction +1. A return value of
// -1 means the packet does not want to move this step.
//
// The packet is presented as its routing-relevant state — the current
// destination rank and the dimension-order class — rather than as a
// *Packet: the step loop keeps that state in struct-of-arrays slabs
// (see Net) so the kernel never drags the cold Packet record through
// the cache, and the narrow signature keeps policies honest about what
// they may depend on.
//
// Policies must be pure functions of (rank, dst, class): they are called
// concurrently from the workers, possibly several times per packet per
// step, so they may cache nothing and must touch no shared state. They
// must also be monotone: every move they request must reduce the
// packet's distance to its destination by one (all dimension-order
// greedy variants qualify) — unless the policy implements DetourPolicy
// and opts into detour accounting. The engine checks monotonicity and
// mesh-boundary legality; a violation aborts the phase with an error
// returned from Route (never a process-killing panic), since it
// indicates an algorithm bug rather than a runtime condition.
type Policy interface {
	NextLink(rank, dst, class int) int
}

// DetourPolicy is implemented by policies that may request moves that do
// not reduce a packet's distance to its destination — fault-aware
// policies routing around failed links. When Detours reports true the
// engine recomputes each packet's remaining distance after every hop
// instead of decrementing a budget, and the monotonicity check is off.
// Detouring policies should be used together with the patience budget
// and the no-progress watchdog (RouteOpts), which turn any livelock they
// could produce into stranded packets or a diagnosed abort.
type DetourPolicy interface {
	Policy
	Detours() bool
}

// MeshGreedy is implemented by policies certifying that their NextLink
// is exactly the dimension-order greedy scheme on the returned mesh
// shape: scan dimensions class, class+1, ..., class-1 (mod d), and on
// the first mismatched coordinate move toward the destination (shorter
// way around each torus ring, ties toward +1). When the shape matches
// the network's, the step loop computes next links inline from its own
// cached stride tables instead of paying an interface call per hop —
// on the n=32 sorting rung the virtual NextLink was ~8% of wall time.
// The paranoid checker still cross-checks cached links against the
// policy's own NextLink, so a certification that does not match the
// policy's behavior is caught, not silently trusted.
type MeshGreedy interface {
	GreedyShape() (grid.Shape, bool)
}

// LinkFor encodes a (dimension, direction) pair as a link id.
func LinkFor(dim, dir int) int {
	if dir > 0 {
		return dim*2 + 1
	}
	return dim * 2
}

// LinkDim returns the dimension of a link id.
func LinkDim(link int) int { return link / 2 }

// LinkDir returns the direction (+1 or -1) of a link id.
func LinkDir(link int) int {
	if link%2 == 1 {
		return 1
	}
	return -1
}

// noPacket is the empty contest-slot and consumed-entry sentinel. Queue
// and slot entries are int32 arena indices (== packet ids), never
// pointers: the hot path moves 4-byte integers through contiguous memory
// and the garbage collector sees no pointers to trace.
const noPacket int32 = -1

// MaxPackets is the number of packet ids a network can hand out between
// Resets: ids are int32 arena indices, capped well inside int32 range
// (over a billion packets; a load that size exhausts memory long before
// it exhausts id space). pipeline.InjectKeys rejects larger loads up
// front; NewPacket panics past the bound.
const MaxPackets = 1 << 30

// Packet arena chunking: packets live in fixed-size slabs so that the
// *Packet handles NewPacket returns stay valid while the arena grows
// (a flat slice would move on append and dangle every retained pointer).
const (
	pktChunkShift = 12
	pktChunkSize  = 1 << pktChunkShift
	pktChunkMask  = pktChunkSize - 1
)

// pktRef is a moving-queue (and outbox) entry: the packet's id together
// with the routing fields the step loop needs on every step. Carrying
// the hot fields inside the queue entry — instead of in a slab indexed
// by packet id — is what keeps the million-processor step loop off the
// memory wall: queue entries are read and rebuilt sequentially and a
// forward copies the whole entry onto its receiver, so the kernel
// streams through memory where an id-indexed lookup would take one cache
// miss per packet per step (measured at ~40% of the whole n=128 rung).
// The struct is 16 bytes and pointer-free.
//
// link caches the policy's answer for the packet's current position.
// NextLink is contractually a pure function of (rank, dst, class) — see
// the Policy docs — so the answer only changes when the packet moves:
// the sender computes the receiver-side link once at forward time (with
// the entry warm in its cache) and the request loop just reads it,
// instead of paying a virtual NextLink call per moving packet per step.
// Freshly activated entries carry linkUnknown and are resolved on their
// first request.
type pktRef struct {
	id    int32 // arena index; noPacket marks a consumed entry
	dst   int32 // destination rank
	togo  int32 // remaining distance to dst
	class int16 // dimension-order class (< dim, so int16 is ample)
	link  int16 // cached NextLink result at the current rank; -1 = no move, linkUnknown = unresolved
}

// linkUnknown marks a queue entry whose cached link has not been
// resolved for its current position yet (only freshly activated
// entries; forwarded entries arrive pre-resolved by the sender).
const linkUnknown int16 = -2

// Layout of the per-packet accounting record (Net.aux), indexed by
// packet id. These fields are off the transit fast path by design: the
// patience counters are only touched when stranding is enabled, the
// activation stamps only on the delivery-completion hop — so their
// scattered per-id access happens at most once per packet per phase.
const (
	auxBest   = iota // smallest togo reached this phase (patience accounting)
	auxStall         // send-phase evaluations since best last improved
	auxBorn          // clock at activation (overshoot accounting)
	auxBornD         // distance at activation
	auxStride        // accounting-record width
)

type proc struct {
	moving []pktRef // packets in transit through this processor, hot fields inline
	held   []int32  // arena indices of packets at rest here

	// fresh is the kernel's eligibility watermark: when its high half
	// equals the current clock, the queue suffix moving[fresh&0xffffffff:]
	// arrived during the current step and must not move again until the
	// next one. A stale stamp means the whole queue is eligible, so the
	// watermark never needs an end-of-step reset — phase activation
	// zeroes it only because the clock restarts between problems. It
	// sits between the queue headers so the kernel's receiver access
	// touches a single cache line. See stepState.sweep.
	fresh uint64

	// The struct is padded to exactly one cache line: the kernel touches
	// one random proc per hop (the receiver), and a 64-byte stride keeps
	// that touch to a single line.
	_ [64 - 2*unsafe.Sizeof([]int{}) - 8]byte
}

// Initial per-processor queue capacities carved from the rank-ordered
// slabs of buildProcs, and the network size cap above which the carve is
// skipped (at 1M processors the slabs reach ~144 bytes per rank, ~150 MB
// — past that, sparse workloads would pay more in footprint than dense
// ones gain in locality). The moving window holds the typical congestion
// of a sorting run's routing phases; the held window covers packets at
// rest up to k = 4 without spilling.
const (
	movSlabCap        = 8
	heldSlabCap       = 4
	queueSlabMaxProcs = 1 << 20
)

// Net is a synchronous network holding packets, routing on any
// topo.Topology — the mesh/torus of the source paper as the inline fast
// path, everything else through the interface. Create one with New (a
// mesh/torus shape) or NewNet (any topology), place packets with Inject
// or SetHeld, and run routing phases with Route. Reset/ResetTopo reuses
// a network (including its packet arena and all per-processor queue
// storage) for a fresh problem, which is how steady-state routing
// reaches zero heap allocations per step: after a warm-up run every
// buffer the step loop touches already exists.
//
// Hot packet state (dst, class, togo) rides inside the moving-queue
// entries themselves (see pktRef), so the step loop streams
// through memory; only the accounting record (patience counters,
// activation stamps — Net.aux, indexed by packet id) is looked up out
// of line, and only on strand and delivery-completion paths. The cold
// Packet structs (keys, tags, pair links) stay untouched until an
// algorithm phase asks for them.
type Net struct {
	// Topo is the network's topology. The step loop special-cases
	// *topo.Mesh with inline stride arithmetic (no interface calls on the
	// transit path); other topologies route through the interface.
	Topo topo.Topology

	// Shape is the grid shape behind a mesh/torus topology, kept public
	// because every mesh-only consumer (the sorting algorithms, indexing
	// schemes, experiment code) reads coordinate arithmetic off it. It is
	// the zero Shape when Topo is not a mesh — mesh-only callers never
	// see that, and topology-generic code must use Topo.
	Shape grid.Shape

	// links is Topo.Links(): the per-processor link-id window width (2d
	// on meshes).
	links int

	procs  []proc
	chunks [][]Packet // packet arena: chunk i holds ids [i<<pktChunkShift, (i+1)<<pktChunkShift)
	clock  int
	nextID int

	// aux is the per-packet accounting record slab (offsets
	// auxBest..auxBornD above), grown in lockstep with the arena; see the
	// aux* constants for why it stays out of the queue entries.
	aux []int32

	// Pool, if non-nil, supplies the persistent workers for every phase
	// routed through this network. The caller owns the pool's lifecycle;
	// Route never closes it. Nil means one worker: the step loop runs on
	// the caller's goroutine.
	Pool *Pool

	// ShardShift overrides the step loop's shard sizing: shards cover
	// 1<<ShardShift processors each. 0 means automatic (see newStepState);
	// out-of-range values are clamped. A profiling knob — exposed as
	// cmd/meshsort -shard-shift — for tuning skewed-activation workloads
	// at large N. Takes effect when the step scratch is (re)built, i.e.
	// on a fresh network or after a shape-changing Reset.
	ShardShift int

	// MaxQueue is the high-water mark of packets co-resident at a single
	// processor (moving + held) observed during routing phases.
	MaxQueue int

	loads []int64 // rank*2d + link -> traversals; nil when counting is off

	scratch *stepState // reusable per-phase routing state (lazily built, survives phases and Reset)
}

// CheckCapacity reports whether a shape is well-formed (see
// grid.Shape.Validate — a hand-built degenerate literal would silently
// mis-stride every coordinate computation) and fits the engine's int32
// arena indexing: processor ranks are stored in int32 packet-state slabs
// and the per-link tables (link-load counters, fault-plan bitsets) are
// indexed rank*2d + link, so both N and N*2d must stay within int32
// range. New and Reset enforce this with a panic
// (mirroring grid.New's overflow rejection); callers that take shapes
// from external input — the service layer, command-line tools — should
// call CheckCapacity first and surface the error.
func CheckCapacity(s grid.Shape) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	n := int64(s.N())
	slots := n * int64(2*s.Dim)
	if n > math.MaxInt32 || slots > math.MaxInt32 {
		return fmt.Errorf("engine: shape %v exceeds int32 arena capacity (N=%d, link slots=%d, limit %d)",
			s, n, slots, math.MaxInt32)
	}
	return nil
}

// CheckTopology is CheckCapacity for arbitrary topologies: N and the
// N*Links per-link tables must fit int32 indexing, and the link-id window must
// fit the int16 cached-link field of the queue entries (pktRef.link,
// with -1 and linkUnknown reserved) — a clique is therefore bounded at
// 32768 nodes.
func CheckTopology(t topo.Topology) error {
	n := int64(t.N())
	links := int64(t.Links())
	if links < 1 {
		return fmt.Errorf("engine: topology %v has no links", t)
	}
	if links > math.MaxInt16 {
		return fmt.Errorf("engine: topology %v has %d links per processor, exceeding the int16 link-id space (%d)",
			t, links, math.MaxInt16)
	}
	if n > math.MaxInt32 || n*links > math.MaxInt32 {
		return fmt.Errorf("engine: topology %v exceeds int32 arena capacity (N=%d, link slots=%d, limit %d)",
			t, n, n*links, math.MaxInt32)
	}
	return nil
}

// New returns an empty network on the mesh/torus of the given shape. It
// panics on a degenerate shape or one that exceeds the engine's int32
// arena capacity (see CheckCapacity).
func New(s grid.Shape) *Net {
	if err := CheckCapacity(s); err != nil {
		panic(err.Error())
	}
	return NewNet(topo.FromShape(s))
}

// NewNet returns an empty network on the given topology. It panics if
// the topology exceeds the engine's capacity (see CheckTopology).
func NewNet(t topo.Topology) *Net {
	if err := CheckTopology(t); err != nil {
		panic(err.Error())
	}
	n := &Net{Topo: t, links: t.Links()}
	if s, ok := topo.MeshShape(t); ok {
		n.Shape = s
	}
	n.buildProcs()
	return n
}

// buildProcs (re)creates the per-processor queues for the current
// topology.
func (n *Net) buildProcs() {
	N := n.Topo.N()
	n.procs = make([]proc, N)
	if N <= queueSlabMaxProcs {
		// Carve every processor's initial moving-queue and held-list
		// capacity out of two rank-ordered contiguous slabs. The step
		// loop's receiver accesses walk ranks at fixed strides (r ± div on
		// a mesh), so rank-ordered queue storage turns the append target
		// into a hardware-prefetchable stream — individually heap-allocated
		// backing arrays land wherever the allocator put them and defeat
		// it. Queues that outgrow their slab window fall back to the heap
		// via ordinary append growth, and only those lose the locality.
		// Very large networks skip the carve: sparse workloads there touch
		// few processors, and an 80-byte-per-rank upfront slab would
		// dominate their footprint.
		movSlab := make([]pktRef, N*movSlabCap)
		heldSlab := make([]int32, N*heldSlabCap)
		for i := range n.procs {
			n.procs[i].moving = movSlab[i*movSlabCap : i*movSlabCap : (i+1)*movSlabCap]
			n.procs[i].held = heldSlab[i*heldSlabCap : i*heldSlabCap : (i+1)*heldSlabCap]
		}
	}
}

// N returns the number of processors.
func (n *Net) N() int { return len(n.procs) }

// Links returns the per-processor link-id window width (2d on meshes).
func (n *Net) Links() int { return n.links }

// Reset returns the network to the empty state for a new problem,
// reusing its storage: the packet arena and its hot-state slabs keep
// their chunks (ids restart at 0 and overwrite in place), and
// per-processor queues keep their learned capacities. When the new shape
// changes the processor count or the links-per-processor, the
// per-processor queues and the step scratch are rebuilt from scratch —
// the scratch caches the shard layout, the stride tables and the
// link-window-sized contest tables. (Since N = side^dim, an unchanged (N, dim) pair pins the
// side length too, so no geometry survives the guard unnoticed; the
// torus flag may flip freely — no torus-dependent state is cached.)
//
// All packets vanish: ids and *Packet handles from before the Reset are
// dead. Stale per-packet state from the previous problem is unreachable
// by construction — hot routing state lives in the moving queues (all
// truncated here) and activation rewrites the accounting records of
// every id before a phase reads them. Load counting is switched off
// (re-enable with SetCountLoads). Reset panics if the new shape is
// degenerate or exceeds the int32 arena capacity (see CheckCapacity).
func (n *Net) Reset(s grid.Shape) {
	if err := CheckCapacity(s); err != nil {
		panic(err.Error())
	}
	// Reuse the current topology when the shape is unchanged: warm
	// same-shape resets are the steady state of the runner pool, and
	// rebuilding the stride tables would put allocations on that path.
	if m, ok := n.Topo.(*topo.Mesh); ok && m.Shape() == s {
		n.ResetTopo(m)
		return
	}
	n.ResetTopo(topo.FromShape(s))
}

// ResetTopo is Reset for an arbitrary topology. Storage survives exactly
// when the geometries match (topo.SameGeometry: same layout contract,
// same stride tables); otherwise the per-processor queues and the step
// scratch are rebuilt. It panics if the topology exceeds the
// engine's capacity (see CheckTopology).
func (n *Net) ResetTopo(t topo.Topology) {
	if err := CheckTopology(t); err != nil {
		panic(err.Error())
	}
	if !topo.SameGeometry(n.Topo, t) {
		n.Topo = t
		n.links = t.Links()
		n.buildProcs()
		n.scratch = nil // shard layout and dimension strides are stale
	} else {
		n.Topo = t
		for i := range n.procs {
			pr := &n.procs[i]
			pr.moving = pr.moving[:0]
			pr.held = pr.held[:0]
		}
	}
	if s, ok := topo.MeshShape(t); ok {
		n.Shape = s
	} else {
		n.Shape = grid.Shape{}
	}
	n.clock = 0
	n.nextID = 0
	n.MaxQueue = 0
	n.loads = nil
	if n.scratch != nil {
		n.scratch.dirty = true // the truncated queues invalidate the step bookkeeping
	}
}

// SetCountLoads enables or disables per-link traversal counting (LinkLoad,
// LoadProfile); off by default because the counters add a write per hop.
// The counters are allocated immediately, so counting covers exactly the
// phases routed between SetCountLoads(true) and SetCountLoads(false) —
// enabling after a phase has already run does not retroactively count it.
// Disabling discards the counters.
func (n *Net) SetCountLoads(on bool) {
	if !on {
		n.loads = nil
		return
	}
	if n.loads == nil {
		n.loads = make([]int64, len(n.procs)*n.links)
	}
}

// CountingLoads reports whether per-link traversal counting is enabled.
func (n *Net) CountingLoads() bool { return n.loads != nil }

// LinkLoad returns the number of packets that traversed the directed
// link of the given processor while counting was enabled. It panics if
// counting was never enabled (a silent zero would be misleading).
func (n *Net) LinkLoad(rank, link int) int64 {
	if n.loads == nil {
		panic("engine: LinkLoad without SetCountLoads(true)")
	}
	return n.loads[rank*n.links+link]
}

// LoadProfile summarizes link congestion: total traversals, the maximum
// over directed links, and per-dimension totals. ByDim decomposes by the
// mesh link encoding and is nil on non-mesh topologies, whose link ids
// carry no dimension structure.
type LoadProfile struct {
	Total int64
	Max   int64
	ByDim []int64
}

// LoadProfile computes the congestion summary. It panics if counting was
// never enabled (see SetCountLoads).
func (n *Net) LoadProfile() LoadProfile {
	if n.loads == nil {
		panic("engine: LoadProfile without SetCountLoads(true)")
	}
	var p LoadProfile
	if n.Shape.Dim > 0 {
		p.ByDim = make([]int64, n.Shape.Dim)
	}
	links := n.links
	for i, v := range n.loads {
		p.Total += v
		if v > p.Max {
			p.Max = v
		}
		if p.ByDim != nil {
			p.ByDim[(i%links)/2] += v
		}
	}
	return p
}

// Clock returns the current simulated time in steps.
func (n *Net) Clock() int { return n.clock }

// AdvanceClock charges cost steps to the clock without moving packets.
// Oracle phases (block-local sorts) use this to account for their o(n)
// running time.
func (n *Net) AdvanceClock(cost int) {
	if cost < 0 {
		panic("engine: negative clock advance")
	}
	n.clock += cost
}

// growSlab extends the accounting-record slab by one packet chunk's
// worth of records, zero-filled, reusing capacity when a Reset already
// grew it.
func growSlab(s []int32) []int32 {
	const ext = pktChunkSize * auxStride
	if cap(s) >= len(s)+ext {
		s = s[:len(s)+ext]
		tail := s[len(s)-ext:]
		for i := range tail {
			tail[i] = 0
		}
		return s
	}
	ns := make([]int32, len(s)+ext)
	copy(ns, s)
	return ns
}

// NewPacket allocates a packet in the network's arena with a fresh id
// and returns a handle to it. The handle stays valid (the arena grows in
// pointer-stable chunks) until the network is Reset. The packet's arena
// index equals its ID; Packet converts back. The packet is not placed in
// the network; use Inject or SetHeld.
//
// Packet ids are int32 arena indices; NewPacket panics if a problem
// creates MaxPackets or more packets (pipeline.InjectKeys rejects such
// loads with an error before any packet is built).
func (n *Net) NewPacket(key int64, src int) *Packet {
	id := n.nextID
	if id >= MaxPackets {
		panic(fmt.Sprintf("engine: packet id %d exceeds the arena index space (%d ids)", id, MaxPackets))
	}
	n.nextID++
	ci := id >> pktChunkShift
	if ci == len(n.chunks) {
		n.chunks = append(n.chunks, make([]Packet, pktChunkSize))
	}
	if id*auxStride >= len(n.aux) {
		n.aux = growSlab(n.aux)
	}
	p := &n.chunks[ci][id&pktChunkMask]
	*p = Packet{ID: id, Key: key, Src: src, Dst: src}
	return p
}

// Packet returns the arena packet with the given id (ids are handed out
// by NewPacket and stored in the Held queues). The pointer is stable
// until Reset.
func (n *Net) Packet(id int32) *Packet {
	return &n.chunks[id>>pktChunkShift][id&pktChunkMask]
}

// Inject places packets at their Src processors as held packets.
func (n *Net) Inject(ps []*Packet) {
	for _, p := range ps {
		pr := &n.procs[p.Src]
		pr.held = append(pr.held, int32(p.ID))
	}
}

// Held returns the arena indices of the packets at rest at the given
// processor (resolve them with Packet). The returned slice is owned by
// the network; callers may reorder it in place but must use SetHeld or
// ClearHeld to change its length.
func (n *Net) Held(rank int) []int32 { return n.procs[rank].held }

// SetHeld replaces the held packets of a processor. Only legal between
// routing phases (oracle rearrangements). The ids must come from this
// network's arena.
func (n *Net) SetHeld(rank int, ids []int32) { n.procs[rank].held = ids }

// ClearHeld empties the held queue of a processor while keeping its
// storage for reuse (oracle phases gather-and-scatter blocks without
// reallocating queue backing every phase).
func (n *Net) ClearHeld(rank int) { n.procs[rank].held = n.procs[rank].held[:0] }

// TotalPackets counts all packets currently in the network.
func (n *Net) TotalPackets() int {
	total := 0
	for i := range n.procs {
		total += len(n.procs[i].moving) + len(n.procs[i].held)
	}
	return total
}

// ForEachHeld calls fn for every held packet, in processor rank order.
func (n *Net) ForEachHeld(fn func(rank int, p *Packet)) {
	for r := range n.procs {
		for _, id := range n.procs[r].held {
			fn(r, n.Packet(id))
		}
	}
}

// Arrivals is a timed-injection plan for a routing phase: packets that
// are born mid-run instead of at phase start. The packets are
// pre-created with NewPacket but NOT Injected — the phase's activation
// scan must not see them — and each becomes active when the simulated
// clock reaches its stamp, so its first possible move is the following
// step and its sojourn time is measured from the stamp. Stamps are
// absolute network clocks (Net.Clock), must be nondecreasing, and a
// stamp already in the past when Route starts activates immediately.
//
// Activation runs on the coordinator between steps, so a plan adds no
// synchronization to the step loop and preserves the bit-identical
// cross-worker determinism guarantee: the activated queue state entering
// every step is independent of the worker count. Route consumes the plan
// through an internal cursor; Rewind re-arms a fully- or
// partially-consumed plan for reuse.
type Arrivals struct {
	// Clocks holds the activation clock of each arrival. Nondecreasing;
	// Route rejects an out-of-order plan with an error.
	Clocks []int32
	// IDs holds the arena packet ids (Packet.ID), parallel to Clocks.
	IDs []int32

	cursor int
}

// Add appends one arrival to the plan.
func (a *Arrivals) Add(clock int32, p *Packet) {
	a.Clocks = append(a.Clocks, clock)
	a.IDs = append(a.IDs, int32(p.ID))
}

// Len returns the total number of arrivals in the plan.
func (a *Arrivals) Len() int { return len(a.Clocks) }

// Pending returns the number of arrivals not yet activated.
func (a *Arrivals) Pending() int { return len(a.Clocks) - a.cursor }

// Rewind resets the consumption cursor so the plan can drive another
// phase. The packet ids must still be valid in the network's arena
// (Reset discards the arena; rebuild the plan after one).
func (a *Arrivals) Rewind() { a.cursor = 0 }

// validate checks the plan's structural invariants from the cursor on.
func (a *Arrivals) validate() error {
	if len(a.Clocks) != len(a.IDs) {
		return fmt.Errorf("engine: arrivals plan has %d clocks but %d ids", len(a.Clocks), len(a.IDs))
	}
	for i := a.cursor + 1; i < len(a.Clocks); i++ {
		if a.Clocks[i] < a.Clocks[i-1] {
			return fmt.Errorf("engine: arrivals plan clocks not nondecreasing at index %d (%d after %d)", i, a.Clocks[i], a.Clocks[i-1])
		}
	}
	return nil
}

// RouteOpts configures a routing phase.
type RouteOpts struct {
	// MaxSteps aborts the phase with an error if exceeded; 0 means
	// 64*D + 1024, far beyond any correct phase of the implemented
	// algorithms.
	MaxSteps int
	// OnStep, if set, is called after every completed step (sweep and
	// drain done) with the number of steps taken so far in this
	// phase. It runs on the caller's goroutine with the network
	// quiescent, so it may inspect state (e.g. Snapshot) but must not
	// modify it.
	OnStep func(step int)
	// Faults, if non-nil, injects the plan's failures into the phase: the
	// kernel consults the plan at grant time, and a packet whose
	// granted link is down simply does not move that step. The plan is
	// read-only during the phase, so fault injection preserves the
	// cross-worker determinism guarantee.
	Faults *FaultPlan

	// Patience is the graceful-degradation budget: a packet that goes
	// this many consecutive steps without reducing its best-yet distance
	// to its destination is parked as stranded (RouteResult.Stranded)
	// with full diagnostics, instead of spinning until MaxSteps. Waiting
	// out contention, a transient outage, or a detour all consume
	// patience; any step that sets a new best distance refunds it in
	// full. 0 means a default of 2*Diameter + 64 when Faults is set and
	// disabled otherwise; negative disables stranding entirely.
	Patience int

	// NoProgress is the livelock watchdog: if the total remaining
	// distance over all undelivered packets fails to reach a new minimum
	// for this many consecutive steps, the phase aborts with a
	// *DegradedError carrying a quiescent snapshot of the stuck packets
	// (RouteResult.Stuck). Stranding counts as progress, so with patience
	// enabled the watchdog only fires if degradation itself stalls. 0
	// means a default of max(4*Diameter + 64, 2*Patience); negative
	// disables the watchdog.
	NoProgress int

	// Paranoid runs the engine invariant checker after every step:
	// packet conservation, no packet left on a link across a step
	// barrier, every held packet delivered at its destination or
	// explicitly stranded, and every moving packet's distance budget
	// equal to its true distance. A violation aborts the phase with an
	// error. Costs a full network scan per step; off by default.
	Paranoid bool

	// Arrivals, if non-nil, schedules packets to be born mid-phase: each
	// activates when the simulated clock reaches its stamp (see Arrivals).
	// The step loop keeps running while arrivals are pending even when no
	// packet is currently moving, fast-forwarding the clock over idle gaps
	// (the skipped steps still count toward RouteResult.Steps — simulated
	// time passed). The default MaxSteps budget is extended past the last
	// stamp. Route consumes the plan; use Arrivals.Rewind to reuse it.
	Arrivals *Arrivals

	// Sojourn, if non-nil, accumulates each delivered packet's sojourn
	// time — delivery clock minus activation clock — into the
	// caller-owned histogram, and stamps its percentile summary on
	// RouteResult.Sojourn. The engine merges per-worker histograms
	// deterministically and never resets the accumulator, so a caller can
	// aggregate latency across phases by passing the same Hist.
	Sojourn *stats.Hist

	// Cancel, if non-nil, is the cooperative cancellation hook: the step
	// loop polls it (non-blocking) at every step boundary and, once the
	// channel is closed, stops with a partial RouteResult and a
	// *CancelledError (errors.Is(err, ErrCancelled)). The network is left
	// quiescent and consistent, but marked dirty like any abnormal end,
	// so the next phase on it pays one clean-sweep pass. Cancellation
	// latency is therefore bounded by one simulated step. Typically wired
	// to a context.Context's Done channel by the service layer.
	Cancel <-chan struct{}
}

// RouteResult reports the outcome of a routing phase.
//
// The volume counters that scale with N·steps (Hops, SumOvershoot) are
// int64: a k-k load on a million-processor mesh moves billions of
// packets per phase, which would silently wrap a 32-bit int.
type RouteResult struct {
	Steps     int   // simulated steps the phase took
	Delivered int   // packets that moved (and arrived) during the phase
	Hops      int64 // total link traversals; equals the sum of activation distances for monotone policies
	MaxDist   int   // maximum source-destination distance over moved packets
	// MaxOvershoot is max over delivered packets of
	// (delivery time - activation distance); 0 means every packet was
	// delivered distance-optimally with no slack at all.
	MaxOvershoot int
	SumOvershoot int64 // for averaging
	MaxQueue     int   // high-water mark of per-processor occupancy this phase

	// Graceful degradation (see RouteOpts.Faults, Patience, NoProgress).
	// Stranded lists the packets parked after exhausting their patience
	// budget, in stranding order (step by step, by id within a step).
	// Stuck is the quiescent snapshot of packets still moving when the
	// phase aborted (watchdog or MaxSteps), in rank order; nil when the
	// phase ran to completion. Both are part of the determinism
	// guarantee.
	Stranded []PacketDiag
	Stuck    []PacketDiag

	// Sojourn summarizes per-packet sojourn times (delivery clock minus
	// activation clock) when RouteOpts.Sojourn requested latency
	// accounting; the zero summary otherwise. It reflects the caller's
	// accumulator as of the end of this phase, so a Hist shared across
	// phases yields cumulative percentiles.
	Sojourn stats.LatencySummary

	// Engine throughput counters (wall-clock, not simulated time; they
	// vary run to run and are excluded from determinism guarantees).
	Workers    int           // worker count the phase ran with
	Elapsed    time.Duration // wall-clock duration of the step loop
	WorkerBusy time.Duration // kernel-work time summed over all workers
}

// AvgOvershoot returns the mean overshoot per delivered packet.
func (r RouteResult) AvgOvershoot() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.SumOvershoot) / float64(r.Delivered)
}

// StepsPerSec returns the simulated-steps-per-wall-second throughput of
// the phase.
func (r RouteResult) StepsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Steps) / r.Elapsed.Seconds()
}

// PacketsPerStep returns the mean number of packet moves per simulated
// step (link traversals per step).
func (r RouteResult) PacketsPerStep() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Hops) / float64(r.Steps)
}

// WorkerUtilization returns the fraction of the phase's worker-seconds
// spent executing kernel work: WorkerBusy / (Workers * Elapsed). Low
// values mean the phase was dominated by idle workers or barrier
// overhead rather than packet movement.
func (r RouteResult) WorkerUtilization() float64 {
	if r.Workers == 0 || r.Elapsed <= 0 {
		return 0
	}
	return float64(r.WorkerBusy) / (float64(r.Workers) * float64(r.Elapsed))
}

// Throughput bundles the derived wall-clock throughput figures of a
// phase. It is the single source of that math: per-phase stats embed it
// instead of re-deriving the ratios from the raw counters.
type Throughput struct {
	StepsPerSec    float64 // simulated steps per wall-second
	PacketsPerStep float64 // mean link traversals per simulated step
	WorkerUtil     float64 // worker pool utilization in [0,1]
}

// Throughput derives the phase's throughput figures from its counters.
func (r RouteResult) Throughput() Throughput {
	return Throughput{
		StepsPerSec:    r.StepsPerSec(),
		PacketsPerStep: r.PacketsPerStep(),
		WorkerUtil:     r.WorkerUtilization(),
	}
}

// Route activates every held packet whose Dst differs from its current
// processor and runs the synchronous step loop under the given policy
// until every one of them is delivered or stranded. It returns the phase
// statistics.
//
// The step loop allocates nothing in steady state: the per-phase scratch
// (bitmaps, per-worker statistic slots and outboxes) is cached on the
// network and reused across phases and Resets, queues keep their learned
// capacities, and all packet references are arena indices. Heap
// allocations occur only on the first phase of a network's life (or
// after a shape-changing Reset, or when the worker count changes), while
// queues and outboxes grow to a phase's peak, and on degradation paths
// (stranding diagnostics, abort snapshots).
//
// Route never panics on policy misbehavior: boundary violations,
// monotonicity violations, and panics raised inside NextLink are all
// converted into an error returned here, together with the partial
// RouteResult accumulated so far. The same holds for the MaxSteps and
// no-progress aborts, whose error is a *DegradedError carrying a
// snapshot of the stuck packets. After a degraded abort the network is
// quiescent and conserved (no packet is mid-link), so it can be
// inspected and even routed again; after a boundary or monotonicity
// error the step was still completed and the network conserved, but the
// policy bug makes further routing meaningless; after a policy panic the
// network state is unspecified and only the process is guaranteed to
// survive.
func (n *Net) Route(policy Policy, opts RouteOpts) (RouteResult, error) {
	var res RouteResult
	st := n.scratch
	if st == nil {
		st = newStepState(n)
		n.scratch = st
	}
	st.begin(policy)
	st.faults = opts.Faults
	st.patience = opts.Patience
	if st.patience == 0 {
		if opts.Faults != nil {
			st.patience = 2*n.Topo.Diameter() + 64
		} else {
			st.patience = -1
		}
	}
	if st.patience < 0 {
		st.patience = 0 // disabled
	}
	watchdog := opts.NoProgress
	if watchdog == 0 {
		watchdog = 4*n.Topo.Diameter() + 64
		if 2*st.patience > watchdog {
			watchdog = 2 * st.patience
		}
	}

	arr := opts.Arrivals
	if arr != nil {
		if err := arr.validate(); err != nil {
			return res, err
		}
		if arr.cursor >= len(arr.Clocks) {
			arr = nil
		}
	}

	active := 0
	actQueue := 0
	totalPackets := 0     // for the paranoid conservation check
	totalTogo := int64(0) // remaining distance over all active packets
	for r := range n.procs {
		pr := &n.procs[r]
		// The kernel's eligibility stamps compare against the clock,
		// which restarts between problems — wipe them so a stale stamp
		// cannot alias a future step of a fresh clock.
		pr.fresh = 0
		// Entries that survived a degraded abort (or a cancel) keep routing
		// this phase, but their cached links were resolved by the previous
		// phase's policy — invalidate them, and count them as active so the
		// step loop does not terminate before they are delivered (normally
		// the queues are empty and this loop does not run).
		for qi := range pr.moving {
			pr.moving[qi].link = linkUnknown
			togo := pr.moving[qi].togo
			totalTogo += int64(togo)
			if int(togo) > res.MaxDist {
				res.MaxDist = int(togo)
			}
			active++
		}
		kept := pr.held[:0]
		for _, id := range pr.held {
			p := n.Packet(id)
			if p.Dst == r {
				kept = append(kept, id)
				continue
			}
			e := st.arm(r, p)
			totalTogo += int64(e.togo)
			res.MaxDist = max(res.MaxDist, int(e.togo))
			pr.moving = append(pr.moving, e)
			active++
		}
		pr.held = kept
		totalPackets += len(pr.moving) + len(pr.held)
		if len(pr.moving) > 0 {
			// Between phases every moving queue is empty, so this is the
			// empty -> non-empty transition for the processor.
			st.movingProcs[r>>st.shardShift]++
			st.movingBits[r>>6] |= 1 << (uint(r) & 63)
		}
		// Occupancy high-water mark: a processor can be fullest at
		// activation and only drain afterwards, so sample before the
		// step loop ever moves a packet.
		if q := len(pr.moving) + len(pr.held); q > actQueue {
			actQueue = q
		}
	}
	if active == 0 && arr == nil {
		return res, nil
	}
	res.MaxQueue = actQueue

	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 64*n.Topo.Diameter() + 1024
		if arr != nil {
			// A timed plan legitimately spends simulated steps waiting for
			// its arrivals; budget the span to the last stamp on top.
			if last := int(arr.Clocks[len(arr.Clocks)-1]); last > n.clock {
				maxSteps += last - n.clock
			}
		}
	}

	pool := n.Pool
	if pool == nil {
		pool = callerPool
	}
	st.attach(pool)
	res.Workers = pool.Workers()

	// Latency accounting: per-worker histograms, lazily sized to the pool
	// and reused across phases, merged into the caller's accumulator on
	// every return path (finishSojourn).
	st.soj = opts.Sojourn != nil
	if st.soj && len(st.sojourn) != len(st.ws) {
		st.sojourn = make([]stats.Hist, len(st.ws))
	}

	var bestTotal int64
	lastImprove := 0
	// activate moves every arrival due at the current clock into the
	// network. Runs on the coordinator only — before the first step and
	// between steps — so its writes to the queues and activity bitmaps
	// need no synchronization, exactly like the phase-start scan above.
	activate := func() {
		due := 0
		for arr.cursor < len(arr.Clocks) && int(arr.Clocks[arr.cursor]) <= n.clock {
			id := arr.IDs[arr.cursor]
			arr.cursor++
			p := n.Packet(id)
			r := p.Src
			pr := &n.procs[r]
			totalPackets++
			if p.Dst == r {
				// Born at its destination: filed at rest immediately, like
				// the phase-start scan keeps dst==src packets held.
				pr.held = append(pr.held, id)
				if q := len(pr.moving) + len(pr.held); q > res.MaxQueue {
					res.MaxQueue = q
				}
				continue
			}
			e := st.arm(r, p)
			totalTogo += int64(e.togo)
			res.MaxDist = max(res.MaxDist, int(e.togo))
			if len(pr.moving) == 0 {
				st.movingProcs[r>>st.shardShift]++
				st.movingBits[r>>6] |= 1 << (uint(r) & 63)
			}
			pr.moving = append(pr.moving, e)
			active++
			due++
			if q := len(pr.moving) + len(pr.held); q > res.MaxQueue {
				res.MaxQueue = q
			}
		}
		if arr.cursor >= len(arr.Clocks) {
			arr = nil
		}
		if due > 0 {
			// Activation raises the remaining-distance total, which the
			// livelock watchdog would read as sustained non-progress;
			// re-arm it on the new baseline.
			bestTotal = totalTogo
			lastImprove = res.Steps
		}
	}
	if arr != nil {
		// Arrivals already due (stamp at or before the current clock)
		// behave exactly like batch injection.
		activate()
	}
	if active == 0 && arr == nil {
		// Every scheduled packet was born at its destination.
		st.finishSojourn(opts.Sojourn, &res)
		return res, nil
	}

	// undelivered counts the packets still in flight or yet to arrive,
	// for the abort and cancel errors.
	undelivered := func() int {
		if arr != nil {
			return active + arr.Pending()
		}
		return active
	}
	bestTotal = totalTogo
	start := time.Now()
	for active > 0 || arr != nil {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				// Cancellation is latency-sensitive: skip the stuckSnapshot
				// diagnostic scan abort would pay and return immediately.
				// The network stays consistent (between steps); dirty makes
				// the next phase clean-sweep the survivors.
				res.Elapsed = time.Since(start)
				res.WorkerBusy = st.busyTotal()
				st.dirty = true
				st.finishSojourn(opts.Sojourn, &res)
				return res, &CancelledError{Steps: res.Steps, Undelivered: undelivered()}
			default:
			}
		}
		if res.Steps >= maxSteps {
			st.finishSojourn(opts.Sojourn, &res)
			return st.abort(res, start, undelivered(), fmt.Sprintf("exceeded %d steps", maxSteps))
		}
		if n.clock >= math.MaxInt32 {
			// The activation records store int32 born stamps; a clock past
			// that range would alias stamps from 2^31 steps ago.
			// Unreachable for any real phase (MaxSteps caps far lower), but
			// a custom MaxSteps must not turn wraparound into silent loss.
			st.finishSojourn(opts.Sojourn, &res)
			return st.abort(res, start, undelivered(), "simulated clock exceeded int32 range")
		}
		if arr != nil {
			if active == 0 {
				// Nothing can move until the next arrival: fast-forward the
				// idle gap. The skipped steps still count — simulated time
				// passed waiting, and latency figures must reflect it.
				if next := int(arr.Clocks[arr.cursor]); next > n.clock {
					res.Steps += next - n.clock
					n.clock = next
				}
			}
			activate()
			if active == 0 {
				continue
			}
		}
		n.clock++
		res.Steps++
		if err := st.runStep(); err != nil {
			res.Elapsed = time.Since(start)
			res.WorkerBusy = st.busyTotal()
			st.finishSojourn(opts.Sojourn, &res)
			return res, err
		}
		for w := range st.ws {
			ws := &st.ws[w]
			active -= ws.delivered
			res.Delivered += ws.delivered
			res.SumOvershoot += int64(ws.sumOver)
			res.Hops += int64(ws.hops)
			totalTogo -= int64(ws.togoDrop)
			res.MaxOvershoot = max(res.MaxOvershoot, ws.maxOver)
			res.MaxQueue = max(res.MaxQueue, ws.maxQueue)
		}
		// Park this step's stranded packets: merge the per-worker lists
		// deterministically (by id, so the order does not depend on where
		// the ranges were cut) and drop them from the active pool.
		strands := st.strandAll[:0]
		for w := range st.ws {
			strands = append(strands, st.ws[w].strand...)
		}
		st.strandAll = strands[:0]
		if len(strands) > 0 {
			slices.SortFunc(strands, diagByID)
			for _, d := range strands {
				totalTogo -= int64(d.Dist)
			}
			active -= len(strands)
			res.Stranded = append(res.Stranded, strands...)
		}
		// Livelock watchdog: abort when the total remaining distance
		// stops reaching new minima. Deliveries, monotone hops, and
		// stranding all lower it; pure circling does not.
		if totalTogo < bestTotal {
			bestTotal = totalTogo
			lastImprove = res.Steps
		} else if watchdog > 0 && res.Steps-lastImprove >= watchdog {
			st.finishSojourn(opts.Sojourn, &res)
			return st.abort(res, start, undelivered(), fmt.Sprintf("made no progress for %d steps", watchdog))
		}
		if opts.Paranoid {
			if err := st.checkInvariants(totalPackets); err != nil {
				res.Elapsed = time.Since(start)
				res.WorkerBusy = st.busyTotal()
				st.finishSojourn(opts.Sojourn, &res)
				return res, err
			}
		}
		if opts.OnStep != nil {
			opts.OnStep(res.Steps)
		}
	}
	res.Elapsed = time.Since(start)
	res.WorkerBusy = st.busyTotal()
	st.finishSojourn(opts.Sojourn, &res)
	if res.MaxQueue > n.MaxQueue {
		n.MaxQueue = res.MaxQueue
	}
	return res, nil
}

// arm activates packet p at rank r for the phase: it builds the queue
// entry from the (algorithm-owned) Packet record and arms the packet's
// accounting record.
func (st *stepState) arm(r int, p *Packet) pktRef {
	togo := int32(st.dist(r, p.Dst))
	arec := st.net.aux[p.ID*auxStride : (p.ID+1)*auxStride]
	arec[auxBest] = togo
	arec[auxStall] = 0
	arec[auxBorn] = int32(st.net.clock)
	arec[auxBornD] = togo
	p.stranded = false
	return pktRef{id: int32(p.ID), dst: int32(p.Dst), class: int16(p.Class), togo: togo, link: linkUnknown}
}

// abort finalizes a degraded phase: it stamps the wall-clock counters,
// snapshots the packets still moving, and wraps everything in a
// *DegradedError. A method (not a closure in Route) so the happy path
// keeps its result on the stack.
func (st *stepState) abort(res RouteResult, start time.Time, active int, reason string) (RouteResult, error) {
	res.Elapsed = time.Since(start)
	res.WorkerBusy = st.busyTotal()
	res.Stuck = st.stuckSnapshot()
	st.dirty = true
	return res, &DegradedError{
		Reason:      reason,
		Steps:       res.Steps,
		Undelivered: active,
		Stranded:    len(res.Stranded),
		Stuck:       res.Stuck,
	}
}

// stepState carries the reusable per-phase scratch of the step kernel:
// the shard layout, the active-set bookkeeping, the per-step range cut,
// and the per-worker slots (statistics, strand lists, outboxes) that the
// coordinator merges deterministically after each step. One instance is
// cached on the Net and survives phases, pipeline runs, and same-layout
// Resets; begin and attach re-arm it per phase without allocating.
type stepState struct {
	net    *Net
	policy Policy
	pool   *Pool

	// Fault injection and graceful degradation (see RouteOpts).
	faults   *FaultPlan
	patience int  // 0 = stranding disabled
	detour   bool // policy opted into non-monotone accounting

	// dirty marks bookkeeping that may have survived an abnormal end of
	// the previous phase (abort or worker panic); begin clears it all.
	dirty bool

	// Worker errors. The engine's own validity checks (boundary,
	// monotonicity, link range) record errors here instead of panicking;
	// the lowest-rank error wins so single-worker runs and multi-worker
	// runs that complete the step report the same failure.
	errMu   sync.Mutex
	err     error
	errRank int

	// Shard layout: processors are grouped into contiguous shards of
	// 1<<shardShift ranks, the resolution of active-set tracking and the
	// granule of the per-step range cut.
	shardShift uint
	shardSize  int
	numShards  int
	// cutShards is the number of shards in one cut block: ranges are cut
	// at multiples of max(64, shardSize) ranks, so neither a shard nor a
	// bitmap word ever straddles two owners.
	cutShards int

	// movingProcs counts, per shard, the processors whose moving queue is
	// non-empty. Only the shard's owner in the current step mutates it;
	// the coordinator reads it between steps to cut the ranges.
	movingProcs []int32

	// movingBits refines movingProcs to processor resolution: bit r set
	// means processor r's moving queue is non-empty. The sweep jumps
	// straight to the set bits instead of testing every queue header — at
	// a million processors that linear test alone streams the whole proc
	// table once per step. Ranges are 64-aligned, so every word has one
	// owner per step and the bitmap is plain-access.
	movingBits []uint64

	// freshBits parks same-step activations: when a forward lands on a
	// processor with an empty queue, its movingBits bit is deferred here
	// and merged in at the end of the owner's sweep. Setting it in
	// movingBits directly would make the sweep visit the processor later
	// in the same step only to find every entry fresh — one wasted random
	// proc-header touch per activation. All-zero between steps.
	freshBits []uint64

	// mesh marks the inline fast path: the topology is a *topo.Mesh, so
	// the kernel uses the stride tables below instead of the Topology
	// interface. Non-mesh topologies leave it false and resolve receivers
	// through Topo.Neighbor. The flag survives same-geometry Resets by
	// construction (topo.SameGeometry never crosses the mesh/non-mesh
	// boundary).
	mesh bool

	// general routes every forward through hop: the Topology interface
	// for the receiver, plus detour distances and load counting — the
	// phase needs one of them, so the inline mesh arithmetic would not
	// cover it. Re-derived by begin for every phase.
	general bool

	// greedy marks that the phase's policy certified itself (via
	// MeshGreedy) as the dimension-order greedy scheme on this very mesh,
	// so link resolution goes through the inline greedyNext instead of
	// the Policy interface. Re-derived by begin for every phase.
	greedy bool

	// divs caches side^(d-1-dim) per dimension: the rank stride of one
	// hop along dim, precomputed so the hot loops never call Ipow.
	// Mesh-only (nil otherwise), like divShift/sideMask/pow2 below.
	divs []int
	// Power-of-two strength reduction for the coordinate extraction
	// (rank / div) % side in the kernel: when side = 2^k it becomes
	// (rank >> divShift[dim]) & sideMask — two single-cycle operations
	// instead of two integer divisions, executed several times per packet
	// per step. Every benchmark-ladder side qualifies; odd sides keep the
	// division path.
	divShift []uint
	sideMask int
	pow2     bool

	// cuts is the step's range cut: worker w owns ranks
	// [cuts[w], cuts[w+1]). split reports that the moving processors span
	// more than one range, so the workers sweep in parallel and forwards
	// across a cut travel through the outboxes; otherwise worker 0 sweeps
	// every rank inline and cuts is unused.
	cuts  []int
	split bool

	// sweepFn and drainFn are the cached st.sweepRange and st.drain
	// method values: Pool.Run stores its argument, so passing a method
	// directly would heap-allocate a fresh binding every step.
	sweepFn, drainFn func(w int)

	ws        []workerState // one per pool worker
	strandAll []PacketDiag  // scratch: merged strand list of the current step

	// Sojourn accounting (RouteOpts.Sojourn): per-worker histograms of
	// delivery clock minus activation clock, merged into the caller's
	// accumulator at phase end. Lazily sized to the worker count on the
	// first latency-tracking phase and reused afterwards, so the warm
	// path stays allocation-free. soj gates the delivery-site observes.
	soj     bool
	sojourn []stats.Hist
}

// workerState is one worker's private slice of the step scratch: its
// statistic slots for the current step, the packets it stranded, and
// its outboxes.
type workerState struct {
	delivered, sumOver, maxOver, maxQueue, hops int
	togoDrop                                    int   // net decrease in remaining distance
	busy                                        int64 // nanoseconds of kernel work this phase
	strand                                      []PacketDiag

	// outbox[o] holds this worker's forwards into owner o's range during
	// the current step, in sweep order; owner o drains them after the
	// sweep barrier and truncates them.
	outbox [][]xfer

	// wideQ is the contest table for links from 64 up, which only a link
	// window wider than the 64-bit grant mask has (the clique): Links()
	// entries, noPacket between processors. grants lists the wide links
	// granted at the current processor; forwardWide forwards them after
	// the links below 64, in ascending order.
	wideQ  []int32
	grants []int32

	_ [64]byte // keeps neighbouring workers' counters off one cache line
}

// grant enters queue entry qi, which requests link l >= 64, into the
// wide link contest: the first requester takes the link, a later one
// only if it outranks the holder. Kept out of line so that the
// kernel's contest loop, which never calls it on a mesh, stays small.
//
//go:noinline
func (ws *workerState) grant(mv []pktRef, qi, l int) {
	cur := ws.wideQ[l]
	if cur == noPacket {
		ws.wideQ[l] = int32(qi)
		ws.grants = append(ws.grants, int32(l))
		return
	}
	if e, ce := &mv[qi], &mv[cur]; e.togo > ce.togo || (e.togo == ce.togo && e.id < ce.id) {
		ws.wideQ[l] = int32(qi)
	}
}

// xfer is a forward across a range boundary: the advanced queue entry
// and its receiver, parked in the sender's outbox until the receiver's
// owner drains it.
type xfer struct {
	recv int32
	e    pktRef
}

// finishSojourn folds the per-worker sojourn histograms into the
// caller-owned accumulator, clears them for the next phase, and stamps
// the phase's latency summary. Hist merging is commutative, so the
// in-order fold is deterministic regardless of which worker delivered
// which packet. Called on every return path of Route; a no-op unless the
// phase enabled latency accounting.
func (st *stepState) finishSojourn(h *stats.Hist, res *RouteResult) {
	if !st.soj {
		return
	}
	st.soj = false
	for i := range st.sojourn {
		h.Merge(&st.sojourn[i])
		st.sojourn[i].Reset()
	}
	res.Sojourn = h.Summary()
}

func newStepState(n *Net) *stepState {
	st := &stepState{net: n}
	// Shard sizing: a shard is the resolution of active-set tracking and
	// the granule of the range cut. Shards default to 128 processors and
	// shrink (to a floor of 16) until there are at least 8 shards per
	// expected worker — on small networks so the tracking keeps
	// resolution, and at high worker counts so a skewed active set (all
	// packets clustered in one region) can still be cut evenly across the
	// pool. Net.ShardShift overrides the result (clamped to [4, 16]).
	workers := 1
	if pool := n.Pool; pool != nil {
		workers = pool.Workers()
	}
	st.shardShift = 7
	for st.shardShift > 4 && len(n.procs)>>st.shardShift < 8*workers {
		st.shardShift--
	}
	if n.ShardShift > 0 {
		shift := n.ShardShift
		if shift < 4 {
			shift = 4
		}
		if shift > 16 {
			shift = 16
		}
		st.shardShift = uint(shift)
	}
	st.shardSize = 1 << st.shardShift
	st.numShards = (len(n.procs) + st.shardSize - 1) >> st.shardShift
	st.cutShards = max(64>>st.shardShift, 1)
	st.movingProcs = make([]int32, st.numShards)
	words := (len(n.procs) + 63) / 64
	st.movingBits = make([]uint64, words)
	st.freshBits = make([]uint64, words)
	if _, isMesh := topo.MeshShape(n.Topo); isMesh {
		st.mesh = true
		st.divs = make([]int, n.Shape.Dim)
		div := 1
		for dim := n.Shape.Dim - 1; dim >= 0; dim-- {
			st.divs[dim] = div
			div *= n.Shape.Side
		}
		if side := n.Shape.Side; side&(side-1) == 0 {
			st.pow2 = true
			st.sideMask = side - 1
			logSide := uint(bits.TrailingZeros(uint(side)))
			st.divShift = make([]uint, n.Shape.Dim)
			for dim := range st.divShift {
				st.divShift[dim] = logSide * uint(n.Shape.Dim-1-dim)
			}
		}
	}
	st.sweepFn = st.sweepRange
	st.drainFn = st.drain
	return st
}

// dist is the step loop's distance query: the mesh's non-virtual
// Shape.Dist on the fast path, the interface call otherwise.
func (st *stepState) dist(a, b int) int {
	if st.mesh {
		return st.net.Shape.Dist(a, b)
	}
	return st.net.Topo.Dist(a, b)
}

// begin re-arms the cached state for a new phase. The activation loop in
// Route recounts movingProcs and movingBits from scratch, so those are
// wiped here; freshBits, the outboxes and the contest tables are
// self-clearing across completed steps and only need a wipe after an
// abnormal phase end (dirty).
func (st *stepState) begin(policy Policy) {
	st.policy = policy
	st.detour = false
	if dp, ok := policy.(DetourPolicy); ok && dp.Detours() {
		st.detour = true
	}
	st.greedy = false
	if st.mesh {
		if gp, ok := policy.(MeshGreedy); ok {
			if s, certified := gp.GreedyShape(); certified && s == st.net.Shape {
				st.greedy = true
			}
		}
	}
	st.general = st.detour || !st.mesh || st.net.loads != nil
	st.err = nil
	st.errRank = 0
	clear(st.movingProcs)
	clear(st.movingBits)
	if st.dirty {
		clear(st.freshBits)
		for w := range st.ws {
			ws := &st.ws[w]
			for o := range ws.outbox {
				ws.outbox[o] = ws.outbox[o][:0]
			}
			for i := range ws.wideQ {
				ws.wideQ[i] = noPacket
			}
			ws.grants = ws.grants[:0]
		}
		st.dirty = false
	}
}

// attach binds the phase to its worker pool and re-arms the per-worker
// slots, reusing them whenever the worker count is unchanged.
func (st *stepState) attach(pool *Pool) {
	st.pool = pool
	w := pool.Workers()
	if w != len(st.ws) {
		st.ws = make([]workerState, w)
		st.cuts = make([]int, w+1)
		for i := range st.ws {
			st.ws[i].outbox = make([][]xfer, w)
			if links := st.net.links; links > 64 {
				st.ws[i].wideQ = make([]int32, links)
				for j := range st.ws[i].wideQ {
					st.ws[i].wideQ[j] = noPacket
				}
			}
		}
		return
	}
	for i := range st.ws {
		st.ws[i].busy = 0
	}
}

func (st *stepState) busyTotal() time.Duration {
	var total int64
	for i := range st.ws {
		total += st.ws[i].busy
	}
	return time.Duration(total)
}

// Below these sizes a step does not cross the pool barrier: a sweep
// over fewer moving processors, or a drain of fewer cross-range
// forwards, costs less than waking the workers for it.
const (
	minSplitProcs = 128
	minSplitDrain = 512
)

// runStep advances the simulation by one synchronous step. The
// coordinator cuts the ranks into one contiguous range per worker; each
// worker sweeps its range (see sweep), applying forwards inside the
// range directly and parking forwards across a cut in its outboxes;
// after the barrier each owner drains the outboxes addressed to it.
// When the moving processors all lie in one range, worker 0 sweeps every
// rank inline and no barrier is crossed. Errors the workers recorded
// (boundary or monotonicity violations) and panics that escape the
// policy are returned, never propagated as panics. Recorded errors leave
// the network conserved (the workers finish the step before the error
// is read); a policy panic abandons the panicking worker's remaining
// range, so the network state is unusable afterwards — but the process
// survives.
func (st *stepState) runStep() (err error) {
	defer func() {
		if r := recover(); r != nil {
			st.dirty = true
			err = fmt.Errorf("engine: routing step panicked: %v", r)
		}
	}()
	for w := range st.ws {
		ws := &st.ws[w]
		ws.delivered, ws.sumOver, ws.maxOver, ws.maxQueue, ws.hops, ws.togoDrop = 0, 0, 0, 0, 0, 0
		ws.strand = ws.strand[:0]
	}
	if st.cut() {
		st.pool.Run(st.sweepFn)
	} else {
		st.sweep(0, 0, len(st.net.procs))
	}
	parked := 0
	for w := range st.ws {
		for _, box := range st.ws[w].outbox {
			parked += len(box)
		}
	}
	if st.split && parked >= minSplitDrain {
		st.pool.Run(st.drainFn)
	} else if parked > 0 {
		for o := range st.ws {
			st.drain(o)
		}
	}
	// Workers are parked behind the pool barrier here, so the error slot
	// needs no lock to read.
	if st.err != nil {
		st.dirty = true
	}
	return st.err
}

// cut divides the ranks into one contiguous range per worker, cut at block
// boundaries so that each range holds about the same number of moving
// processors, and reports whether the step should run split: more than
// one range holds moving processors and there are enough of them to pay
// for the barrier.
func (st *stepState) cut() bool {
	st.split = false
	W := len(st.ws)
	if W == 1 {
		return false
	}
	total := 0
	for _, c := range st.movingProcs {
		total += int(c)
	}
	if total < minSplitProcs {
		return false
	}
	N := len(st.net.procs)
	st.cuts[0] = 0
	k, acc, prev, live := 1, 0, 0, 0
	for sh := 0; sh < st.numShards && k < W; {
		end := min(sh+st.cutShards, st.numShards)
		for ; sh < end; sh++ {
			acc += int(st.movingProcs[sh])
		}
		for k < W && acc*W >= k*total {
			st.cuts[k] = min(end<<st.shardShift, N)
			if acc > prev {
				live++
				prev = acc
			}
			k++
		}
	}
	if total > prev {
		live++ // the last range holds the remainder
	}
	for ; k <= W; k++ {
		st.cuts[k] = N
	}
	st.split = live > 1
	return st.split
}

// sweepRange is worker w's share of a split step: its range of the cut.
func (st *stepState) sweepRange(w int) { st.sweep(w, st.cuts[w], st.cuts[w+1]) }

// recordErr notes an engine-detected violation at the given rank. Workers
// keep sweeping after recording (an early exit would leave packets
// mid-link); the lowest-rank error wins so single-worker runs and
// multi-worker runs report the same failure.
func (st *stepState) recordErr(rank int, err error) {
	st.errMu.Lock()
	if st.err == nil || rank < st.errRank {
		st.err = err
		st.errRank = rank
	}
	st.errMu.Unlock()
}

// nextLink resolves the link the packet of entry e wants at rank: inline
// dimension-order greedy when the phase's policy certified itself (see
// MeshGreedy), the interface call otherwise. It answers -1 for no move,
// and also for a link outside the window, recording that as an error.
func (st *stepState) nextLink(rank int, e *pktRef) int {
	if st.greedy {
		return st.greedyNext(rank, int(e.dst), int(e.class))
	}
	l := st.policy.NextLink(rank, int(e.dst), int(e.class))
	if l >= st.net.links {
		st.recordErr(rank, fmt.Errorf("engine: policy returned invalid link %d for packet %d at rank %d", l, e.id, rank))
		return -1
	}
	return max(l, -1)
}

// greedyNext is the engine-resident copy of the dimension-order greedy
// scheme (route.Greedy.NextLink), computed from the step state's own
// stride tables. It must stay behaviorally identical to the policy it
// replaces — the certification contract of MeshGreedy — and the
// paranoid checker enforces exactly that by re-asking the policy.
func (st *stepState) greedyNext(rank, dst, class int) int {
	d := len(st.divs)
	side := st.net.Shape.Side
	dim := class
	for i := 0; i < d; i++ {
		var c, t int
		if st.pow2 {
			sh := st.divShift[dim]
			c = (rank >> sh) & st.sideMask
			t = (dst >> sh) & st.sideMask
		} else {
			div := st.divs[dim]
			c = (rank / div) % side
			t = (dst / div) % side
		}
		if c != t {
			dir := 1
			if st.net.Shape.Torus {
				fwd := t - c
				if fwd < 0 {
					fwd += side
				}
				if fwd > side-fwd {
					dir = -1
				}
			} else if t < c {
				dir = -1
			}
			return LinkFor(dim, dir)
		}
		dim++
		if dim == d {
			dim = 0
		}
	}
	return -1
}

// lineDist is the distance between coordinates a and b along one
// dimension: the line distance on a mesh, the ring distance on a torus.
func lineDist(a, b, side int, torus bool) int {
	d := max(a-b, b-a)
	if torus {
		d = min(d, side-d)
	}
	return d
}

// sweep is the step kernel: one pass over the moving processors of the
// rank range [lo, hi), which worker w owns for this step. Each processor
// lets its moving packets request links and grants each link to the
// highest-priority requester (farthest distance to go, then lowest id —
// the paper's contention rule), then forwards the winners in link-id
// order. A forward to a receiver inside [lo, hi) is appended to the
// receiver's queue on the spot; one across the range boundary is parked
// in w's outbox for the receiver's owner to drain after the sweep
// barrier (see drain).
//
// Synchronous-step semantics are preserved by the per-processor
// eligibility watermark proc.fresh: entries pushed during the current
// step sit above it and are excluded from the link contest, so the
// contest sees exactly the queue the step started with, and no packet
// moves twice in one step. Every step outcome is independent of queue
// order — the contest is decided by the strict (togo, id) order — so
// queues and held sets evolve as identical multisets at every worker
// count; only the order inside a queue depends on where the cuts fell.
//
// The rarer modes stay out of the per-hop path, each decided once per
// phase: patience runs as a pass before the sweep (strandStalled),
// faults as one grant-time check, links from 64 up through a wide
// contest forwarded via the outbox (grant, forwardWide), and non-mesh
// receivers, detour distances and link-load counting through hop.
func (st *stepState) sweep(w, lo, hi int) {
	if lo >= hi {
		// An empty range (several cuts at one block boundary, or at N):
		// nothing to sweep, and no word of the range is this worker's.
		return
	}
	t0 := time.Now()
	if st.patience > 0 {
		st.strandStalled(w, lo, hi)
	}
	n := st.net
	ws := &st.ws[w]
	mb, nb := st.movingBits, st.freshBits
	clk := uint64(n.clock)
	clk32 := int32(n.clock)
	procs := n.procs
	aux := n.aux
	movingProcs := st.movingProcs
	shardShift := st.shardShift
	// Loop invariants of the neighbor/link arithmetic, hoisted: the body
	// below runs once per hop, and st field loads the compiler cannot
	// cache across the recordErr call sites are measurable there.
	divs, shifts := st.divs, st.divShift
	mask, pw2 := st.sideMask, st.pow2
	side := n.Shape.Side
	torus := n.Shape.Torus
	greedy, general := st.greedy, st.general
	faults := st.faults
	span := uint(hi - lo) // recv is in the range iff uint(recv-lo) < span
	// Transit-path counters live in locals for the duration of the sweep
	// (one flush at the end).
	hops, togoDrop, maxQ := 0, 0, ws.maxQueue
	delivered, sumOver, maxOver := 0, 0, ws.maxOver
	var sojH *stats.Hist
	if st.soj {
		sojH = &st.sojourn[w]
	}
	// Stack-resident link contest table for the links below 64 (every
	// link of a mesh within the int32 arena): grantMask gates which
	// entries of outQ are live, so the table needs no clearing between
	// processors. Links from 64 up (only a clique has them) contest in
	// the worker's wideQ and leave after the low ones (see forwardWide).
	var outQ [64]int32
	// Shards smaller than a bitmap word share it: each reads only its own
	// bits of the word.
	shardBits := ^uint64(0)
	if st.shardSize < 64 {
		shardBits = uint64(1)<<uint(st.shardSize) - 1
	}
	for sh := lo >> shardShift; sh<<shardShift < hi; sh++ {
		if movingProcs[sh] == 0 {
			continue
		}
		slo := sh << shardShift
		shi := min(slo+st.shardSize, hi)
		emptied := int32(0)
		for wi := slo >> 6; wi < (shi+63)>>6; wi++ {
			// Snapshot the word: emptied senders clear their bits in
			// mb[wi] as the pass strips bits off this working copy.
			// (Same-step activations never touch mb — they park in
			// freshBits and merge after the pass.)
			word := mb[wi] & (shardBits << (uint(slo) & 63))
			if word == 0 {
				continue
			}
			wbase := wi << 6
			for ; word != 0; word &= word - 1 {
				r := wbase + bits.TrailingZeros64(word)
				pr := &procs[r]
				eligible := len(pr.moving)
				if pr.fresh>>32 == clk {
					eligible = int(pr.fresh & 0xffffffff)
				}
				// The link-request contest over the eligible prefix (a solo
				// entry simply wins its link unopposed). The prefix reslice
				// is safe — the watermark boundary never exceeds the queue
				// length — and stays valid through the forward loop:
				// forwards touch other processors' queues, never this one's.
				mv := pr.moving[:eligible]
				var grantMask uint64
				for qi := range mv {
					e := &mv[qi]
					// The cached link is valid until the packet moves
					// (NextLink is a pure function of position — see pktRef);
					// only freshly activated entries resolve it here.
					l := int(e.link)
					if l == int(linkUnknown) {
						l = st.nextLink(r, e)
						e.link = int16(l)
					}
					if uint(l) >= 64 {
						// No move (l < 0), or a link beyond the grant mask
						// (only a clique has them): that one contests in the
						// worker's wide table, after the same fault check.
						if l >= 0 && (faults == nil || !faults.LinkDown(r, l, n.clock)) {
							ws.grant(mv, qi, l)
						}
						continue
					}
					if faults != nil && faults.LinkDown(r, l, n.clock) {
						continue
					}
					if grantMask>>uint(l)&1 == 0 {
						outQ[l] = int32(qi)
						grantMask |= 1 << uint(l)
					} else if ce := &mv[outQ[l]]; e.togo > ce.togo || (e.togo == ce.togo && e.id < ce.id) {
						outQ[l] = int32(qi)
					}
				}
				// Forward every granted entry in link-id order.
				consumed := 0
				for m := grantMask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					e := &mv[outQ[l]]
					var recv int
					var next int32
					if general {
						var ok bool
						if recv, next, ok = st.hop(r, l, e); !ok {
							continue
						}
					} else {
						// Inline mesh fast path: the receiver is one stride
						// away and the distance drops by one. No interface
						// call on the transit path.
						dim := LinkDim(l)
						div := divs[dim]
						var c int
						if pw2 {
							c = (r >> shifts[dim]) & mask
						} else {
							c = (r / div) % side
						}
						recv = -1
						if LinkDir(l) > 0 {
							if c < side-1 {
								recv = r + div
							} else if torus {
								recv = r - (side-1)*div
							}
						} else {
							if c > 0 {
								recv = r - div
							} else if torus {
								recv = r + (side-1)*div
							}
						}
						if recv < 0 {
							// Leave the packet in its queue (unconsumed) and
							// drop the grant: the error aborts the phase at
							// the end of the step with the network conserved.
							st.recordErr(r, fmt.Errorf("engine: policy routed packet %d off the mesh boundary at rank %d link %d", e.id, r, l))
							continue
						}
						next = e.togo - 1
						if next <= 0 && int(e.dst) != recv {
							st.recordErr(r, fmt.Errorf("engine: non-monotone policy: packet %d exhausted its distance budget away from its destination", e.id))
						}
					}
					hops++
					togoDrop += int(e.togo) - int(next)
					consumed++
					if uint(recv-lo) >= span {
						// Across the cut: the receiver's owner may be sweeping
						// it right now, so park the entry for the drain.
						st.park(w, recv, e, next)
						e.id = noPacket
						continue
					}
					p2 := &procs[recv]
					// pending counts the receiver's entries left from the
					// start of the step (see the occupancy sample below).
					pending := len(p2.moving)
					if p2.fresh>>32 == clk {
						pending = int(p2.fresh & 0xffffffff)
					}
					if next == 0 && int(e.dst) == recv {
						p2.held = append(p2.held, e.id)
						delivered++
						ab := int(e.id) * auxStride
						over := int((clk32 - aux[ab+auxBorn]) - aux[ab+auxBornD])
						sumOver += over
						if over > maxOver {
							maxOver = over
						}
						if sojH != nil {
							sojH.Observe(int64(clk32 - aux[ab+auxBorn]))
						}
					} else {
						// Resolve the packet's next link from the receiver's
						// position now, while its entry is warm in this cache:
						// the receiver's contest then just reads it.
						var nl int
						if greedy {
							// Same-dimension shortcut: a greedy packet keeps
							// correcting the dimension it is moving along until
							// the coordinate matches, and the direction never
							// flips mid-course (the shorter-way choice and its
							// +1 tie-break are stable under the moves they
							// pick). Dimensions before dim in the packet's
							// class order are already corrected, so while dim
							// still mismatches it remains the first mismatch
							// and the next link is the link just taken.
							dim := LinkDim(l)
							var rc, tc int
							if pw2 {
								sh := shifts[dim]
								rc = (recv >> sh) & mask
								tc = (int(e.dst) >> sh) & mask
							} else {
								div := divs[dim]
								rc = (recv / div) % side
								tc = (int(e.dst) / div) % side
							}
							if rc != tc {
								nl = l
							} else {
								nl = st.greedyNext(recv, int(e.dst), int(e.class))
							}
						} else {
							nl = st.nextLink(recv, e)
						}
						if len(p2.moving) == 0 {
							// Empty -> non-empty. The bitmap bit is parked in
							// freshBits and merged after the sweep — set
							// directly in movingBits, a receiver above the
							// sender would be visited later this very step
							// only to skip its all-fresh queue.
							movingProcs[recv>>shardShift]++
							nb[recv>>6] |= 1 << (uint(recv) & 63)
						}
						if p2.fresh>>32 != clk {
							p2.fresh = clk<<32 | uint64(len(p2.moving))
						}
						p2.moving = append(p2.moving, pktRef{id: e.id, dst: e.dst, class: e.class, togo: next, link: int16(nl)})
					}
					// Occupancy high-water mark, sampled once the receiver's
					// departures are done: the sweep visits processors in
					// ascending rank, so a receiver below the sender has
					// already sent, and one with no step-start entries
					// sends nothing — their queues only grow from here on.
					// A receiver still to be swept samples itself then.
					if recv < r || pending == 0 {
						if qn := len(p2.moving) + len(p2.held); qn > maxQ {
							maxQ = qn
						}
					}
					e.id = noPacket
				}
				if len(ws.grants) > 0 {
					consumed += st.forwardWide(w, r, mv)
				}
				if consumed == eligible && eligible == len(pr.moving) {
					// Everything moved (the solo-entry common case): truncate
					// instead of rebuilding. The watermark is necessarily
					// stale here — a push this step would have stamped it and
					// appended, making len exceed the eligible prefix.
					pr.moving = pr.moving[:0]
					mb[wi] &^= 1 << uint(r-wbase)
					emptied++
				} else if consumed > 0 && st.rebuild(pr, eligible) {
					mb[wi] &^= 1 << uint(r-wbase)
					emptied++
				}
				// The processor's departures are done and its queue only
				// grows from here: sample its occupancy.
				if qn := len(pr.moving) + len(pr.held); qn > maxQ {
					maxQ = qn
				}
			}
		}
		if emptied > 0 {
			movingProcs[sh] -= emptied
		}
	}
	// Merge the range's deferred activations; freshBits reads all-zero
	// again afterwards.
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		if word := nb[wi]; word != 0 {
			mb[wi] |= word
			nb[wi] = 0
		}
	}
	ws.hops += hops
	ws.togoDrop += togoDrop
	ws.maxQueue = max(ws.maxQueue, maxQ)
	ws.delivered += delivered
	ws.sumOver += sumOver
	ws.maxOver = max(ws.maxOver, maxOver)
	ws.busy += time.Since(t0).Nanoseconds()
}

// strandStalled runs the patience accounting for every moving packet of
// the range [lo, hi) at the start of worker w's sweep, and parks the
// packets that ran out of patience in their processor's held list as
// stranded: they stop requesting links for good. Only a new best
// distance refunds patience, so a packet circling a blocked region runs
// out just like one that cannot move at all. Doing this before the
// contest, instead of inside it, keeps the kernel's per-entry loop free
// of the patience branch; the outcome is the same, since an expired
// packet never contests a link either way.
func (st *stepState) strandStalled(w, lo, hi int) {
	n := st.net
	aux := n.aux
	patience := int32(st.patience)
	mb := st.movingBits
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		wbase := wi << 6
		for word := mb[wi]; word != 0; word &= word - 1 {
			r := wbase + bits.TrailingZeros64(word)
			pr := &n.procs[r]
			kept := pr.moving[:0]
			for _, e := range pr.moving {
				arec := aux[int(e.id)*auxStride : int(e.id)*auxStride+auxStride]
				if e.togo < arec[auxBest] {
					arec[auxBest] = e.togo
					arec[auxStall] = 0
				} else if arec[auxStall]++; arec[auxStall] > patience {
					n.Packet(e.id).stranded = true
					st.ws[w].strand = append(st.ws[w].strand, st.diagnose(r, e))
					pr.held = append(pr.held, e.id)
					continue
				}
				kept = append(kept, e)
			}
			pr.moving = kept
			if len(kept) == 0 {
				mb[wi] &^= 1 << uint(r-wbase)
				st.movingProcs[r>>st.shardShift]--
			}
		}
	}
}

// rebuild compacts processor pr's moving queue after the forwards: it
// drops the consumed winners from the eligible prefix, keeps the fresh
// suffix, and re-anchors the watermark to the compacted prefix length
// so later pushes keep appending above it. It reports whether the queue
// emptied.
func (st *stepState) rebuild(pr *proc, eligible int) bool {
	kept := pr.moving[:0]
	for _, e := range pr.moving[:eligible] {
		if e.id != noPacket {
			kept = append(kept, e)
		}
	}
	keptOld := len(kept)
	kept = append(kept, pr.moving[eligible:]...)
	pr.moving = kept
	if clk := uint64(st.net.clock); pr.fresh>>32 == clk {
		pr.fresh = clk<<32 | uint64(keptOld)
	}
	return len(pr.moving) == 0
}

// hop is the general forward of the packet of entry e from rank r over
// link l: the receiver through the Topology interface, the distance to
// go after the hop (recomputed for a detouring policy), and the link's
// load counter. It reports false, with the error recorded and the packet
// left in place, when the link carries no edge.
func (st *stepState) hop(r, l int, e *pktRef) (recv int, next int32, ok bool) {
	n := st.net
	if recv, _, ok = n.Topo.Neighbor(r, l); !ok {
		st.recordErr(r, fmt.Errorf("engine: policy routed packet %d over the edgeless link %d of rank %d on %v", e.id, l, r, n.Topo))
		return 0, 0, false
	}
	if st.detour {
		next = st.detourDist(r, recv, l, e)
	} else if next = e.togo - 1; next <= 0 && int(e.dst) != recv {
		st.recordErr(r, fmt.Errorf("engine: non-monotone policy: packet %d exhausted its distance budget away from its destination", e.id))
	}
	if n.loads != nil {
		// The sender owns its own link counters.
		n.loads[r*n.links+l]++
	}
	return recv, next, true
}

// detourDist is the distance to go after a detouring policy moved the
// packet of entry e from rank r to recv over link l: recomputed, not
// decremented, since the hop may lead away from the destination. On a
// mesh the hop changes only the coordinate along the link's dimension,
// so only that term of the distance moves.
func (st *stepState) detourDist(r, recv, l int, e *pktRef) int32 {
	if !st.mesh {
		return int32(st.net.Topo.Dist(recv, int(e.dst)))
	}
	dim := LinkDim(l)
	var c, rc, t int
	if st.pow2 {
		sh := st.divShift[dim]
		c, rc, t = (r>>sh)&st.sideMask, (recv>>sh)&st.sideMask, (int(e.dst)>>sh)&st.sideMask
	} else {
		div, side := st.divs[dim], st.net.Shape.Side
		c, rc, t = (r/div)%side, (recv/div)%side, (int(e.dst)/div)%side
	}
	side, torus := st.net.Shape.Side, st.net.Shape.Torus
	return e.togo + int32(lineDist(rc, t, side, torus)-lineDist(c, t, side, torus))
}

// forwardWide forwards the wide grants of processor r (see grant), in
// link-id order, and reports how many packets left. Each goes through
// hop and is parked in worker w's outbox like a forward across a range
// cut, so the wide contest adds nothing to the kernel's per-hop loop;
// the drain appends it after the sweep, exactly as the synchronous step
// requires.
func (st *stepState) forwardWide(w, r int, mv []pktRef) int {
	ws := &st.ws[w]
	slices.Sort(ws.grants)
	moved := 0
	for _, l := range ws.grants {
		e := &mv[ws.wideQ[l]]
		ws.wideQ[l] = noPacket
		recv, next, ok := st.hop(r, int(l), e)
		if !ok {
			continue
		}
		ws.hops++
		ws.togoDrop += int(e.togo - next)
		st.park(w, recv, e, next)
		e.id = noPacket
		moved++
	}
	ws.grants = ws.grants[:0]
	return moved
}

// park hands the packet of entry e, forwarded by worker w to recv with
// next hops to go, to the receiver's owner (worker 0 when the step runs
// inline): it does the delivery accounting or resolves the next link, as
// the inline path does, and appends the advanced entry to the owner's
// outbox.
func (st *stepState) park(w, recv int, e *pktRef, next int32) {
	ws := &st.ws[w]
	nl := int16(-1)
	if next == 0 && int(e.dst) == recv {
		ws.delivered++
		clk := int32(st.net.clock)
		ab := int(e.id) * auxStride
		born := st.net.aux[ab+auxBorn]
		over := int((clk - born) - st.net.aux[ab+auxBornD])
		ws.sumOver += over
		ws.maxOver = max(ws.maxOver, over)
		if st.soj {
			st.sojourn[w].Observe(int64(clk - born))
		}
	} else {
		nl = int16(st.nextLink(recv, e))
	}
	o := 0
	if st.split {
		o = w
		for recv < st.cuts[o] {
			o--
		}
		for recv >= st.cuts[o+1] {
			o++
		}
	}
	ws.outbox[o] = append(ws.outbox[o], xfer{recv: int32(recv), e: pktRef{id: e.id, dst: e.dst, class: e.class, togo: next, link: nl}})
}

// drain appends every outbox entry addressed to owner o's range to its
// receiver, in worker order and within a worker in sweep order, so the
// resulting queues depend only on the cut, never on scheduling. It runs
// after the sweep barrier, when every sender is done, so the receivers'
// state is final once their entries land and each is sampled for the
// occupancy high-water mark right there. The sender already did the
// packet's bookkeeping and delivery accounting.
func (st *stepState) drain(o int) {
	t0 := time.Now()
	procs := st.net.procs
	ws := &st.ws[o]
	maxQ := ws.maxQueue
	for w := range st.ws {
		box := st.ws[w].outbox[o]
		for _, x := range box {
			recv := int(x.recv)
			pr := &procs[recv]
			if x.e.togo == 0 && int(x.e.dst) == recv {
				pr.held = append(pr.held, x.e.id)
			} else {
				if len(pr.moving) == 0 {
					st.movingProcs[recv>>st.shardShift]++
					st.movingBits[recv>>6] |= 1 << (uint(recv) & 63)
				}
				pr.moving = append(pr.moving, x.e)
			}
			if qn := len(pr.moving) + len(pr.held); qn > maxQ {
				maxQ = qn
			}
		}
		st.ws[w].outbox[o] = box[:0]
	}
	ws.maxQueue = maxQ
	ws.busy += time.Since(t0).Nanoseconds()
}

// diagnose captures a PacketDiag for the packet with the given queue
// entry at the given rank: its profitable links (the ones that would
// reduce its distance) and which of them the fault plan blocks right
// now. Read-only with respect to shared state, so the workers may
// call it concurrently. The cold Packet record is resolved here —
// diagnostics are off the hot path by definition.
func (st *stepState) diagnose(rank int, e pktRef) PacketDiag {
	n := st.net
	dst := int(e.dst)
	d := PacketDiag{
		ID: n.Packet(e.id).ID, Key: n.Packet(e.id).Key, Rank: rank, Dst: dst,
		Dist: int(e.togo), Waited: int(n.aux[int(e.id)*auxStride+auxStall]),
	}
	// A link is profitable exactly when it strictly reduces the
	// distance to the destination. Enumerating links in id order
	// reproduces the historical mesh order (dimensions ascending, and on
	// a torus tie both directions — each reduces the ring distance).
	cur := st.dist(rank, dst)
	for l := 0; l < n.links; l++ {
		recv, _, ok := n.Topo.Neighbor(rank, l)
		if !ok || st.dist(recv, dst) >= cur {
			continue
		}
		d.Wants = append(d.Wants, l)
		if st.faults.LinkDown(rank, l, n.clock) {
			d.Blocked = append(d.Blocked, l)
		}
	}
	return d
}

// stuckSnapshot diagnoses every packet still moving, in (rank, id) order.
// Only called from the coordinator with the network quiescent.
func (st *stepState) stuckSnapshot() []PacketDiag {
	var out []PacketDiag
	for r := range st.net.procs {
		for _, e := range st.net.procs[r].moving {
			out = append(out, st.diagnose(r, e))
		}
	}
	slices.SortFunc(out, diagByRankID)
	return out
}

// diagByID orders PacketDiags by packet id (the deterministic merge
// order of per-step stranding lists). Ids are unique, so the order is
// total.
func diagByID(a, b PacketDiag) int { return cmp.Compare(a.ID, b.ID) }

// diagByRankID orders PacketDiags by (rank, id) — the stuck-snapshot
// order.
func diagByRankID(a, b PacketDiag) int {
	if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
		return c
	}
	return diagByID(a, b)
}

// checkInvariants is the paranoid per-step checker (RouteOpts.Paranoid):
// no packet left on a link across the step barrier (every outbox drained,
// every contest slot clear), the step-local bitmaps clear, the moving
// bitmap and per-shard counts in step with the queues, packet
// conservation against the activation-time census, every held packet at
// its destination or explicitly stranded, and every moving packet's
// distance budget equal to its true distance.
func (st *stepState) checkInvariants(total int) error {
	n := st.net
	for w := range st.ws {
		for o, box := range st.ws[w].outbox {
			if len(box) != 0 {
				return fmt.Errorf("engine: invariant violated: worker %d left %d forwards for owner %d across a step barrier", w, len(box), o)
			}
		}
		for l, qi := range st.ws[w].wideQ {
			if qi != noPacket {
				return fmt.Errorf("engine: invariant violated: worker %d left grant %d on link %d across a step barrier", w, qi, l)
			}
		}
	}
	for wi := range st.movingBits {
		if st.freshBits[wi] != 0 {
			return fmt.Errorf("engine: invariant violated: deferred activation bits %#x left for processors [%d,%d) across a step barrier", st.freshBits[wi], wi*64, wi*64+64)
		}
	}
	count := 0
	shardMoving := make([]int32, st.numShards)
	for r := range n.procs {
		pr := &n.procs[r]
		count += len(pr.moving) + len(pr.held)
		for _, id := range pr.held {
			p := n.Packet(id)
			if p.Dst != r && !p.stranded {
				return fmt.Errorf("engine: invariant violated: packet %d held at rank %d away from destination %d without being stranded", p.ID, r, p.Dst)
			}
		}
		if got := st.movingBits[r>>6]&(1<<(uint(r)&63)) != 0; got != (len(pr.moving) > 0) {
			return fmt.Errorf("engine: invariant violated: rank %d holds %d moving packets but its moving bit reads %v", r, len(pr.moving), got)
		}
		if len(pr.moving) > 0 {
			shardMoving[r>>st.shardShift]++
		}
		for _, e := range pr.moving {
			if want := st.dist(r, int(e.dst)); int(e.togo) != want {
				return fmt.Errorf("engine: invariant violated: packet %d at rank %d carries distance budget %d but is %d hops from its destination", e.id, r, e.togo, want)
			}
			if l := int(e.link); l != int(linkUnknown) && l >= 0 {
				if want := st.policy.NextLink(r, int(e.dst), int(e.class)); l != want {
					return fmt.Errorf("engine: invariant violated: packet %d at rank %d caches link %d but the policy picks %d", e.id, r, l, want)
				}
			}
		}
	}
	for sh, c := range shardMoving {
		if st.movingProcs[sh] != c {
			return fmt.Errorf("engine: invariant violated: shard %d counts %d moving processors but holds %d", sh, st.movingProcs[sh], c)
		}
	}
	if count != total {
		return fmt.Errorf("engine: invariant violated: %d packets in the network, %d activated", count, total)
	}
	return nil
}
