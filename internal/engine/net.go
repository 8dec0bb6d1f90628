package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
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
// (see Net) so the send phase never drags the cold Packet record through
// the cache, and the narrow signature keeps policies honest about what
// they may depend on.
//
// Policies must be pure functions of (rank, dst, class): they are called
// concurrently from shard workers, possibly several times per packet per
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

// noPacket is the empty out-slot sentinel. Queue and slot entries are
// int32 arena indices (== packet ids), never pointers: the hot path
// moves 4-byte integers through contiguous memory and the garbage
// collector sees no pointers to trace.
const noPacket int32 = -1

// pktDone is OR-ed into an inbox entry's id when the sender's
// bookkeeping already determined the hop completes the packet's journey
// (togo hits zero). The delivery phase then files the packet as held
// without touching any per-packet state — on the transit path delivery
// is a purely streaming scan. Reserving bit 30 caps the arena at
// MaxPackets ids (over a billion packets; a load that size exhausts
// memory long before it exhausts id space).
const pktDone int32 = 1 << 30

// MaxPackets is the number of packet ids a network can hand out between
// Resets: ids are int32 arena indices with bit 30 reserved for in-flight
// delivery flagging. pipeline.InjectKeys rejects larger loads up front;
// NewPacket panics past the bound.
const MaxPackets = 1 << 30

// Packet arena chunking: packets live in fixed-size slabs so that the
// *Packet handles NewPacket returns stay valid while the arena grows
// (a flat slice would move on append and dangle every retained pointer).
const (
	pktChunkShift = 12
	pktChunkSize  = 1 << pktChunkShift
	pktChunkMask  = pktChunkSize - 1
)

// pktRef is a moving-queue (and inbox) entry: the packet's id together
// with the routing fields the step loop needs on every step. Carrying
// the hot fields inside the queue entry — instead of in a slab indexed
// by packet id — is what keeps the million-processor step loop off the
// memory wall: queue entries are read and rebuilt sequentially, inbox
// strips are scanned sequentially, so the send and delivery phases
// stream through memory where an id-indexed lookup would take one cache
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
	id    int32 // arena index; noPacket marks an empty/consumed entry; inbox ids carry pktDone
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

	// fresh is the fused-path eligibility watermark: when its high half
	// equals the current clock, the queue suffix moving[fresh&0xffffffff:]
	// arrived during the current step and must not move again until the
	// next one. A stale stamp means the whole queue is eligible, so the
	// watermark never needs an end-of-step reset — phase activation
	// zeroes it only because the clock restarts between problems. It
	// sits between the queue headers so the fused path's receiver access
	// touches a single cache line. See stepState.fusedStep.
	fresh uint64

	// The struct is padded to exactly one cache line: the step loops
	// touch one random proc per hop (the receiver), and a 64-byte stride
	// keeps that touch to a single line. The out-slot contest scratch
	// deliberately lives outside the struct (Net.outs, windowed by rank)
	// — only the two-phase send path uses it, and carrying its slice
	// header here would push the struct over the line.
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
// Hot packet state (dst, class, togo) rides inside the moving-queue and
// inbox entries themselves (see pktRef), so the step loop streams
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

	// links is Topo.Links(): the per-processor out-slot and inbox window
	// width (2d on meshes).
	links int

	procs []proc
	// outs is the backing slab behind every proc's out window
	// (outs[r*2d : (r+1)*2d]): send-phase contest scratch, owned by the
	// sending processor and cleared before the send phase ends.
	outs []int32
	// inbox is the receiver-indexed transfer slab: the send phase copies
	// each granted packet's full queue entry into inbox[recv*2d+slot]
	// (slot = the sender's link id, which uniquely identifies the sender
	// from the receiver's side — on a 2-side torus the double edge uses
	// the two distinct slots). The delivery phase then drains one
	// contiguous strip per receiver and appends the entries straight onto
	// its moving queue — no per-packet state lookup on the transit path.
	// Writers never collide: (recv, slot) is unique per directed edge.
	inbox  []pktRef
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
// and the out-slot backing slab carves N*2d windows, so both N and N*2d
// must stay within int32 range. New and Reset enforce this with a panic
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
		return fmt.Errorf("engine: shape %v exceeds int32 arena capacity (N=%d, out slots=%d, limit %d)",
			s, n, slots, math.MaxInt32)
	}
	return nil
}

// CheckTopology is CheckCapacity for arbitrary topologies: N and the
// N*Links slot slab must fit int32 indexing, and the link-id window must
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
		return fmt.Errorf("engine: topology %v exceeds int32 arena capacity (N=%d, out slots=%d, limit %d)",
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

// buildProcs (re)creates the per-processor queues and the shared
// out-slot backing array for the current topology. The backing array is
// one slab of N*links slots carved into per-processor windows, so it is
// only valid for the exact (N, links) it was built for — see ResetTopo.
func (n *Net) buildProcs() {
	N, links := n.Topo.N(), n.links
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
	backing := make([]int32, N*links)
	for i := range backing {
		backing[i] = noPacket
	}
	n.outs = backing
	n.inbox = make([]pktRef, N*links)
	for i := range n.inbox {
		n.inbox[i].id = noPacket
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
// per-processor queues and the out-slot backing slab are rebuilt from
// scratch — the slab is sized and windowed by (N, 2d), so reusing it
// across such a change would alias the out slots of different
// processors. (Since N = side^dim, an unchanged (N, dim) pair pins the
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
// same stride tables); otherwise the per-processor queues, slot slabs,
// and step scratch are rebuilt. It panics if the topology exceeds the
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
		for i := range n.outs {
			n.outs[i] = noPacket
		}
		// The inbox can hold entries only if the previous phase died to a
		// policy panic mid-step; clear it so the poisoned state cannot
		// leak into the fresh problem.
		for i := range n.inbox {
			n.inbox[i].id = noPacket
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
		n.scratch.markDirty()
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
// Packet ids are int32 arena indices with bit 30 reserved for the
// in-flight delivery flag (pktDone); NewPacket panics if a problem
// creates maxPackets or more packets (pipeline.InjectKeys rejects such
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

// pkt is the internal hot-path accessor (identical to Packet; kept
// separate so the exported name can afford documentation and the hot
// loops read tersely).
func (n *Net) pkt(id int32) *Packet {
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
			fn(r, n.pkt(id))
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
	// OnStep, if set, is called after every completed step (both
	// barriers passed) with the number of steps taken so far in this
	// phase. It runs on the caller's goroutine with the network
	// quiescent, so it may inspect state (e.g. Snapshot) but must not
	// modify it.
	OnStep func(step int)
	// Faults, if non-nil, injects the plan's failures into the phase: the
	// send phase consults the plan at grant time, and a packet whose
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
	WorkerBusy time.Duration // shard-work time summed over all workers
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
// spent executing shard work: WorkerBusy / (Workers * Elapsed). Low
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
// (shard lists, per-worker statistic slots) is cached on the network and
// reused across phases and Resets, queues keep their learned capacities,
// and all packet references are arena indices. Heap allocations occur
// only on the first phase of a network's life (or after a shape-changing
// Reset, or when the worker count changes) and on degradation paths
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
		// The fused path's eligibility stamps compare against the clock,
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
			p := n.pkt(id)
			if p.Dst == r {
				kept = append(kept, id)
				continue
			}
			// Build the queue entry from the (algorithm-owned) Packet
			// record and arm the per-phase accounting state.
			togo := int32(st.dist(r, p.Dst))
			ab := int(id) * auxStride
			arec := n.aux[ab : ab+auxStride]
			arec[auxBest] = togo
			arec[auxStall] = 0
			arec[auxBorn] = int32(n.clock)
			arec[auxBornD] = togo
			p.stranded = false
			totalTogo += int64(togo)
			if int(togo) > res.MaxDist {
				res.MaxDist = int(togo)
			}
			pr.moving = append(pr.moving, pktRef{
				id: id, dst: int32(p.Dst), class: int16(p.Class), togo: togo,
				link: linkUnknown,
			})
			active++
		}
		pr.held = kept
		totalPackets += len(pr.moving) + len(pr.held)
		if len(pr.moving) > 0 {
			// Between phases every moving queue is empty, so this is the
			// empty -> non-empty transition for the processor.
			st.movingProcs[r>>st.shardShift]++
			if st.movingBits != nil {
				st.movingBits[r>>6] |= 1 << (uint(r) & 63)
			}
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
	// With a single worker the two-phase send/deliver split buys nothing
	// (there is nobody to overlap with) and costs an inbox round-trip per
	// hop; route the plain mesh case through the fused step path instead.
	// Exotic modes (stranding, faults, detours, load counting) and
	// sub-word shards keep the two-phase path, whose code handles them.
	st.fused = st.workers == 1 && st.patience == 0 && st.faults == nil &&
		!st.detour && st.mesh && st.movingBits != nil && n.loads == nil

	// Latency accounting: per-worker histograms, lazily sized to the pool
	// and reused across phases, merged into the caller's accumulator on
	// every return path (finishSojourn).
	st.soj = opts.Sojourn != nil
	if st.soj && len(st.sojourn) != st.workers {
		st.sojourn = make([]stats.Hist, st.workers)
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
			p := n.pkt(id)
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
			togo := int32(st.dist(r, p.Dst))
			ab := int(id) * auxStride
			arec := n.aux[ab : ab+auxStride]
			arec[auxBest] = togo
			arec[auxStall] = 0
			arec[auxBorn] = int32(n.clock)
			arec[auxBornD] = togo
			p.stranded = false
			totalTogo += int64(togo)
			if int(togo) > res.MaxDist {
				res.MaxDist = int(togo)
			}
			if len(pr.moving) == 0 {
				st.movingProcs[r>>st.shardShift]++
				if st.movingBits != nil {
					st.movingBits[r>>6] |= 1 << (uint(r) & 63)
				}
			}
			pr.moving = append(pr.moving, pktRef{
				id: id, dst: int32(p.Dst), class: int16(p.Class), togo: togo,
				link: linkUnknown,
			})
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
				und := active
				if arr != nil {
					und += arr.Pending()
				}
				return res, &CancelledError{Steps: res.Steps, Undelivered: und}
			default:
			}
		}
		if res.Steps >= maxSteps {
			st.finishSojourn(opts.Sojourn, &res)
			und := active
			if arr != nil {
				und += arr.Pending()
			}
			return st.abort(res, start, und, fmt.Sprintf("exceeded %d steps", maxSteps))
		}
		if n.clock >= math.MaxInt32 {
			// The activation records store int32 born stamps; a clock past
			// that range would alias stamps from 2^31 steps ago.
			// Unreachable for any real phase (MaxSteps caps far lower), but
			// a custom MaxSteps must not turn wraparound into silent loss.
			st.finishSojourn(opts.Sojourn, &res)
			und := active
			if arr != nil {
				und += arr.Pending()
			}
			return st.abort(res, start, und, "simulated clock exceeded int32 range")
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
		for w := 0; w < st.workers; w++ {
			active -= st.delivered[w]
			res.Delivered += st.delivered[w]
			res.SumOvershoot += int64(st.sumOver[w])
			res.Hops += int64(st.hops[w])
			totalTogo -= int64(st.togoDrop[w])
			if st.maxOver[w] > res.MaxOvershoot {
				res.MaxOvershoot = st.maxOver[w]
			}
			if st.maxQueue[w] > res.MaxQueue {
				res.MaxQueue = st.maxQueue[w]
			}
		}
		// Park this step's stranded packets: merge the per-worker lists
		// deterministically (by id; work-stealing makes the raw order
		// scheduling-dependent) and drop them from the active pool.
		strands := st.strandAll[:0]
		for w := 0; w < st.workers; w++ {
			strands = append(strands, st.strand[w]...)
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
			und := active
			if arr != nil {
				und += arr.Pending()
			}
			return st.abort(res, start, und, fmt.Sprintf("made no progress for %d steps", watchdog))
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

// stepState carries the reusable per-phase scratch shared by shard
// workers: the shard layout, the active-shard bookkeeping, and
// per-worker statistic slots (merged deterministically by the
// coordinator after each step). One instance is cached on the Net and
// survives phases, pipeline runs, and same-layout Resets; begin and
// attach re-arm it per phase without allocating.
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
	// 1<<shardShift ranks; a shard is the unit of scheduling and of
	// active-set tracking.
	shardShift uint
	shardSize  int
	numShards  int

	// movingProcs counts, per shard, the processors whose moving queue is
	// non-empty. It is only ever mutated by the worker that owns the
	// shard in the current phase, and read by the coordinator between
	// barriers, so no atomics are needed.
	movingProcs []int32

	// movingBits refines movingProcs to processor resolution: bit r set
	// means processor r's moving queue is non-empty. The send phase jumps
	// straight to its shard's set bits instead of testing every queue
	// header — at a million processors that linear test alone streams the
	// whole proc table once per step. All writers own the bits they touch
	// (activation runs single-threaded; send and delivery mutate only
	// their own shard's processors), so the bitmap is plain-access — but
	// that ownership argument needs words not to straddle shards, so the
	// bitmap is only built when shards hold at least 64 processors (the
	// default; nil otherwise, falling back to the linear test).
	movingBits []uint64

	// freshBits parks the fused path's same-step activations: when a
	// forward lands on a processor with an empty queue, its movingBits
	// bit is deferred here and merged in at the end of the step. Setting
	// it in movingBits directly would make the pass visit the processor
	// later in the same step only to find every entry fresh — one wasted
	// random proc-header touch per activation. Always all-zero outside a
	// fused step; nil exactly when movingBits is.
	freshBits []uint64

	// pending flags, per shard, that some processor in the shard has an
	// incoming packet parked in its inbox strip. Senders in other shards
	// set flags concurrently during the send phase (atomically); the
	// coordinator harvests and clears them between barriers and schedules
	// only flagged shards for the delivery phase.
	pending []int32

	// inboxBits is the per-processor companion of pending: bit r of
	// worker w's bitmap means w forwarded a packet into processor r's
	// inbox strip. The delivery phase ORs the workers' words together and
	// visits only set bits, instead of pre-scanning every strip of the
	// shard's inbox region (2d entries per processor — a memory-bandwidth
	// bill that dominated the million-processor rung). The bitmaps are
	// per worker so the send phase marks them with plain stores into
	// N/8 cache-resident bytes: a shared bitmap would need an atomic OR
	// per forward, and a LOCK-prefixed instruction drains the store
	// buffer — serializing the scattered inbox-store misses the buffer
	// otherwise hides, which measured slower than having no bitmap at
	// all. Sized by attach (the worker count), wiped by begin when dirty.
	inboxBits [][]uint64

	// mesh marks the inline fast path: the topology is a *topo.Mesh, so
	// the send/delivery loops use the stride tables below instead of the
	// Topology interface. Non-mesh topologies leave it false and resolve
	// neighbors through Topo.Neighbor/SlotSender. The flag survives
	// same-geometry Resets by construction (topo.SameGeometry never
	// crosses the mesh/non-mesh boundary).
	mesh bool

	// greedy marks that the phase's policy certified itself (via
	// MeshGreedy) as the dimension-order greedy scheme on this very mesh,
	// so link resolution goes through the inline greedyNext instead of
	// the Policy interface. Re-derived by begin for every phase.
	greedy bool

	// fused marks that the phase runs the single-worker fused step path
	// (see fusedStep) instead of the two-phase send/deliver split.
	// Derived by Route per phase, after the pool is attached.
	fused bool

	// divs caches side^(d-1-dim) per dimension: the rank stride of one
	// hop along dim, precomputed so the hot loops never call Ipow.
	// Mesh-only (nil otherwise), like divShift/sideMask/pow2 below.
	divs []int
	// Power-of-two strength reduction for the coordinate extraction
	// (rank / div) % side in the shard loops: when side = 2^k it becomes
	// (rank >> divShift[dim]) & sideMask — two single-cycle operations
	// instead of two integer divisions, executed several times per packet
	// per step. Every benchmark-ladder side qualifies; odd sides keep the
	// division path.
	divShift []uint
	sideMask int
	pow2     bool

	sendList    []int32 // scratch: shards scheduled for the current send phase
	deliverList []int32 // scratch: shards scheduled for the current delivery phase
	curList     []int32 // list the workers are currently draining
	curSend     bool
	next        atomic.Int64 // work-stealing cursor into curList

	// workerFn is the cached st.phaseWorker method value: Pool.Run stores
	// its argument, so passing the method directly would heap-allocate a
	// fresh binding twice per step.
	workerFn func(w int)

	workers   int
	delivered []int
	sumOver   []int
	maxOver   []int
	maxQueue  []int
	hops      []int
	togoDrop  []int          // net decrease in remaining distance, per worker
	strand    [][]PacketDiag // packets stranded this step, per worker
	strandAll []PacketDiag   // scratch: merged strand list of the current step
	busy      []int64        // nanoseconds of shard work, per worker

	// Sojourn accounting (RouteOpts.Sojourn): per-worker histograms of
	// delivery clock minus activation clock, merged into the caller's
	// accumulator at phase end. Lazily sized to the worker count on the
	// first latency-tracking phase and reused afterwards, so the warm
	// path stays allocation-free. soj gates the delivery-site observes.
	soj     bool
	sojourn []stats.Hist
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
	// Shard sizing: a shard is both the scheduling quantum and the
	// resolution of active-set tracking. Shards default to 128 processors
	// and shrink (to a floor of 16) until there are at least 8 shards per
	// expected worker — on small networks so the tracking keeps
	// resolution, and at high worker counts so a skewed active set (all
	// packets clustered in one region) still splits across the pool
	// instead of serializing on one worker. Net.ShardShift overrides the
	// result (clamped to [4, 16]).
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
	st.movingProcs = make([]int32, st.numShards)
	st.pending = make([]int32, st.numShards)
	if st.shardSize >= 64 {
		st.movingBits = make([]uint64, (len(n.procs)+63)/64)
		st.freshBits = make([]uint64, (len(n.procs)+63)/64)
	}
	st.sendList = make([]int32, 0, st.numShards)
	st.deliverList = make([]int32, 0, st.numShards)
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
	st.workerFn = st.phaseWorker
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

// markDirty requests a full bookkeeping wipe at the next begin (used by
// Reset, whose queue truncation invalidates the incremental counters).
func (st *stepState) markDirty() { st.dirty = true }

// begin re-arms the cached state for a new phase. The activation loop in
// Route recounts movingProcs from scratch, so those counters are wiped
// here; the pending flags are self-clearing across completed steps and
// only need a wipe after an abnormal phase end (dirty).
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
	st.fused = false
	st.err = nil
	st.errRank = 0
	for i := range st.movingProcs {
		st.movingProcs[i] = 0
	}
	if st.dirty {
		for i := range st.pending {
			st.pending[i] = 0
		}
		for _, bm := range st.inboxBits {
			for i := range bm {
				bm[i] = 0
			}
		}
		st.dirty = false
	}
	for i := range st.movingBits {
		st.movingBits[i] = 0
	}
	for i := range st.freshBits {
		st.freshBits[i] = 0
	}
}

// attach binds the phase to its worker pool and re-arms the per-worker
// statistic slots, reusing them whenever the worker count is unchanged.
func (st *stepState) attach(pool *Pool) {
	st.pool = pool
	w := pool.Workers()
	if w != st.workers {
		st.workers = w
		st.delivered = make([]int, w)
		st.sumOver = make([]int, w)
		st.maxOver = make([]int, w)
		st.maxQueue = make([]int, w)
		st.hops = make([]int, w)
		st.togoDrop = make([]int, w)
		st.strand = make([][]PacketDiag, w)
		st.busy = make([]int64, w)
		words := (len(st.net.procs) + 63) / 64
		st.inboxBits = make([][]uint64, w)
		for i := range st.inboxBits {
			st.inboxBits[i] = make([]uint64, words)
		}
		return
	}
	for i := 0; i < w; i++ {
		st.busy[i] = 0
	}
}

func (st *stepState) busyTotal() time.Duration {
	var total int64
	for _, b := range st.busy {
		total += b
	}
	return time.Duration(total)
}

// runStep advances the simulation by one synchronous step: a send phase
// over the shards that hold moving packets, a barrier, and a delivery
// phase over the shards flagged as receivers during the send. Errors the
// workers recorded (boundary or monotonicity violations) and panics that
// escape the policy are returned, never propagated as panics. Recorded
// errors leave the network conserved (the workers finish the step before
// the error is read at the barrier); a policy panic abandons the
// panicking worker's remaining shards, so the network state is unusable
// afterwards — but the process survives.
func (st *stepState) runStep() (err error) {
	defer func() {
		if r := recover(); r != nil {
			st.dirty = true
			err = fmt.Errorf("engine: routing step panicked: %v", r)
		}
	}()
	for w := 0; w < st.workers; w++ {
		st.delivered[w] = 0
		st.sumOver[w] = 0
		st.maxOver[w] = 0
		st.maxQueue[w] = 0
		st.hops[w] = 0
		st.togoDrop[w] = 0
		st.strand[w] = st.strand[w][:0]
	}
	if st.fused {
		st.fusedStep()
		if st.err != nil {
			st.dirty = true
		}
		return st.err
	}
	st.sendList = st.sendList[:0]
	for sh, c := range st.movingProcs {
		if c > 0 {
			st.sendList = append(st.sendList, int32(sh))
		}
	}
	st.runPhase(st.sendList, true)
	st.deliverList = st.deliverList[:0]
	for sh := range st.pending {
		if st.pending[sh] != 0 {
			st.pending[sh] = 0
			st.deliverList = append(st.deliverList, int32(sh))
		}
	}
	st.runPhase(st.deliverList, false)
	// Workers are parked behind the pool barrier here, so the error slot
	// needs no lock to read.
	if st.err != nil {
		st.dirty = true
	}
	return st.err
}

// recordErr notes an engine-detected violation at the given rank. Workers
// keep draining their shards after recording (an early exit would leave
// packets mid-link); the lowest-rank error wins so single-worker runs and
// multi-worker runs report the same failure.
func (st *stepState) recordErr(rank int, err error) {
	st.errMu.Lock()
	if st.err == nil || rank < st.errRank {
		st.err = err
		st.errRank = rank
	}
	st.errMu.Unlock()
}

// runPhase drains the shard list across the pool's workers via
// work-stealing. Shards touch disjoint state within a phase, so the
// assignment of shards to workers cannot affect the outcome; the
// per-worker statistic slots are merged with commutative operations.
func (st *stepState) runPhase(list []int32, send bool) {
	if len(list) == 0 {
		return
	}
	st.curList = list
	st.curSend = send
	st.next.Store(0)
	if st.workers == 1 || len(list) == 1 {
		// Inline fast path: no reason to cross the pool barrier when the
		// caller's worker slot can drain the whole list alone.
		st.phaseWorker(0)
		return
	}
	st.pool.Run(st.workerFn)
}

func (st *stepState) phaseWorker(w int) {
	t0 := time.Now()
	nprocs := len(st.net.procs)
	for {
		i := st.next.Add(1) - 1
		if i >= int64(len(st.curList)) {
			break
		}
		sh := int(st.curList[i])
		lo := sh << st.shardShift
		hi := lo + st.shardSize
		if hi > nprocs {
			hi = nprocs
		}
		if st.curSend {
			st.sendShard(w, sh, lo, hi)
		} else {
			st.deliverShard(w, sh, lo, hi)
		}
	}
	st.busy[w] += time.Since(t0).Nanoseconds()
}

// sendShard implements the send phase for processors [lo, hi): each
// processor lets every moving packet request a link and grants each link
// to the highest-priority requester (farthest distance to go, then lowest
// id — the paper's contention rule). Links down under the fault plan
// reject requests at grant time, and packets whose patience budget ran
// out are parked as stranded instead of requesting. Receiving shards are
// flagged for the delivery phase.
//
// The loop works entirely on the queue entries (hot fields inline) plus
// the out-of-line patience counters when stranding is on; the cold
// Packet record is only resolved on the stranding path, which allocates
// diagnostics anyway.
func (st *stepState) sendShard(w, sh, lo, hi int) {
	n := st.net
	aux := n.aux
	patience := int32(st.patience)
	emptied := int32(0)
	bm := st.inboxBits[w]
	if mb := st.movingBits; mb != nil {
		// Words lie wholly inside the shard (shardSize >= 64), so the
		// owner may read and clear them with plain accesses; the tail
		// word's bits past the processor count are never set.
		for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
			word := mb[wi]
			if word == 0 {
				continue
			}
			wbase := wi << 6
			for ; word != 0; word &= word - 1 {
				r := wbase + bits.TrailingZeros64(word)
				if st.sendProc(w, r, &n.procs[r], bm, aux, patience) {
					emptied++
					mb[wi] &^= 1 << uint(r-wbase)
				}
			}
		}
	} else {
		for r := lo; r < hi; r++ {
			pr := &n.procs[r]
			if len(pr.moving) == 0 {
				continue
			}
			if st.sendProc(w, r, pr, bm, aux, patience) {
				emptied++
			}
		}
	}
	if emptied > 0 {
		st.movingProcs[sh] -= emptied
	}
}

// sendProc runs the send phase for one processor with a non-empty moving
// queue: the link-request contest, grant validation, the forward into
// the receivers' inbox strips, and the queue rebuild. It reports whether
// the queue emptied (the caller maintains the moving-processor
// bookkeeping at both shard and bit resolution).
func (st *stepState) sendProc(w, r int, pr *proc, bm []uint64, aux []int32, patience int32) bool {
	n := st.net
	// Grant each link to the best requester; the out slots (this
	// processor's window of the shared slab) hold the winner's index
	// into the moving queue. The slots are already empty: they are this
	// processor's contest scratch, and the validation pass below clears
	// every slot it reads, so slots never survive a send phase.
	out := n.outs[r*n.links : (r+1)*n.links]
	granted := 0
	expired := false
	for qi := range pr.moving {
		e := &pr.moving[qi]
		if patience > 0 {
			// Personal-best accounting: only a new best distance
			// refunds patience, so a packet circling a blocked region
			// runs out just like one that cannot move at all.
			ab := int(e.id) * auxStride
			arec := aux[ab : ab+auxStride]
			if e.togo < arec[auxBest] {
				arec[auxBest] = e.togo
				arec[auxStall] = 0
			} else {
				arec[auxStall]++
			}
			if arec[auxStall] > patience {
				// Out of patience: stop requesting links; the queue
				// rebuild below strands it.
				expired = true
				continue
			}
		}
		// The cached link is valid until the packet moves (NextLink is a
		// pure function of position — see pktRef); only freshly
		// activated entries resolve it here. This keeps the request
		// loop free of virtual calls: it streams queue entries and
		// contests out slots, nothing else.
		l := int(e.link)
		if l == int(linkUnknown) {
			l = st.nextLink(r, int(e.dst), int(e.class))
			if l >= len(out) {
				st.recordErr(r, fmt.Errorf("engine: policy returned invalid link %d for packet %d at rank %d", l, e.id, r))
				e.link = -1
				continue
			}
			if l < 0 {
				l = -1
			}
			e.link = int16(l)
		}
		if l < 0 {
			continue
		}
		if st.faults != nil && st.faults.LinkDown(r, l, n.clock) {
			continue
		}
		cur := out[l]
		if cur == noPacket {
			granted++
			out[l] = int32(qi)
		} else if ce := &pr.moving[cur]; e.togo > ce.togo || (e.togo == ce.togo && e.id < ce.id) {
			out[l] = int32(qi)
		}
	}
	if granted == 0 && !expired {
		return false
	}
	// Validate the grants, mark the winning queue entries consumed,
	// hand each one to its receiver's inbox strip, and flag the
	// receiver's shard for the delivery phase; the receiver may live
	// in a shard with no moving packets of its own. The local out
	// slots are cleared here — they are contest scratch and never
	// survive the send phase.
	side := n.Shape.Side
	links := n.links
	for l, qi := range out {
		if qi == noPacket {
			continue
		}
		out[l] = noPacket
		e := &pr.moving[qi]
		var recv, slot int
		if st.mesh {
			// Inline mesh fast path: the receiver is one stride away and
			// the inbox slot is the sender's own link id. No interface
			// call on the transit path.
			dim := LinkDim(l)
			div := st.divs[dim]
			var c int
			if st.pow2 {
				c = (r >> st.divShift[dim]) & st.sideMask
			} else {
				c = (r / div) % side
			}
			recv, slot = r, l
			legal := true
			switch {
			case LinkDir(l) > 0:
				if c < side-1 {
					recv = r + div
				} else if n.Shape.Torus {
					recv = r - (side-1)*div
				} else {
					legal = false
				}
			default:
				if c > 0 {
					recv = r - div
				} else if n.Shape.Torus {
					recv = r + (side-1)*div
				} else {
					legal = false
				}
			}
			if !legal {
				// Leave the packet in its queue (unconsumed) and drop the
				// grant: the error aborts the phase at the step barrier
				// with the network conserved.
				st.recordErr(r, fmt.Errorf("engine: policy routed packet %d off the mesh boundary at rank %d link %d", e.id, r, l))
				continue
			}
		} else {
			var ok bool
			recv, slot, ok = n.Topo.Neighbor(r, l)
			if !ok {
				st.recordErr(r, fmt.Errorf("engine: policy routed packet %d over the edgeless link %d of rank %d on %v", e.id, l, r, n.Topo))
				continue
			}
		}
		// Advance the packet's bookkeeping here, where its queue entry
		// is already in cache: the delivery phase then needs no
		// per-packet state access on the transit path at all — the
		// receiver gets the advanced entry (and the done bit) from the
		// inbox strip itself.
		old := e.togo
		var next int32
		if st.detour {
			// Detouring policies may move packets away from their
			// destinations; recompute instead of decrementing.
			next = int32(st.dist(recv, int(e.dst)))
		} else {
			next = old - 1
			if next <= 0 && int(e.dst) != recv {
				st.recordErr(r, fmt.Errorf("engine: non-monotone policy: packet %d exhausted its distance budget away from its destination", e.id))
			}
		}
		st.togoDrop[w] += int(old - next)
		id := e.id
		nl := int16(-1)
		if next == 0 && int(e.dst) == recv {
			id |= pktDone
		} else {
			// Resolve the packet's next link from the receiver's
			// position now, while its entry is warm in this cache: the
			// receiver's request loop then just reads it. Same call
			// count as resolving on request (one per hop), but off the
			// hot loop — and stalled packets never re-resolve at all.
			nl2 := st.nextLink(recv, int(e.dst), int(e.class))
			if nl2 >= links {
				st.recordErr(recv, fmt.Errorf("engine: policy returned invalid link %d for packet %d at rank %d", nl2, e.id, recv))
				nl2 = -1
			}
			if nl2 >= 0 {
				nl = int16(nl2)
			}
		}
		n.inbox[recv*links+slot] = pktRef{id: id, dst: e.dst, class: e.class, togo: next, link: nl}
		// Mark the entry consumed; the queue rebuild below drops it.
		e.id = noPacket
		// Plain OR into this worker's own bitmap — see inboxBits for
		// why this must not be a LOCK-prefixed instruction.
		bm[recv>>6] |= 1 << (uint(recv) & 63)
		dest := recv >> st.shardShift
		if atomic.LoadInt32(&st.pending[dest]) == 0 {
			atomic.StoreInt32(&st.pending[dest], 1)
		}
	}
	// Remove winners (consumed above) from the moving queue and park
	// packets whose patience ran out. Entries are pointer-free, so
	// the truncated tail needs no clearing for the collector.
	kept := pr.moving[:0]
	for qi := range pr.moving {
		e := pr.moving[qi]
		if e.id == noPacket {
			continue
		}
		if patience > 0 && aux[int(e.id)*auxStride+auxStall] > patience {
			p := n.pkt(e.id)
			p.stranded = true
			st.strand[w] = append(st.strand[w], st.diagnose(r, e))
			pr.held = append(pr.held, e.id)
			continue
		}
		kept = append(kept, e)
	}
	pr.moving = kept
	return len(kept) == 0
}

// nextLink resolves a packet's next link: inline dimension-order greedy
// when the phase's policy certified itself (see MeshGreedy), the
// interface call otherwise.
func (st *stepState) nextLink(rank, dst, class int) int {
	if st.greedy {
		return st.greedyNext(rank, dst, class)
	}
	return st.policy.NextLink(rank, dst, class)
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

// fusedStep is the single-worker step path: with no second worker to
// overlap with, the two-phase send/deliver split is pure overhead —
// every forwarded entry is written into the inbox transfer slab only to
// be read back and appended to the receiver's queue moments later, two
// extra scattered cache misses per hop that exist solely to keep
// concurrent senders from touching the receivers' queues. The fused
// path grants links exactly like sendProc and then pushes the winning
// entries straight onto the receivers' queues.
//
// Synchronous-step semantics are preserved by the per-processor
// eligibility watermark proc.fresh: entries pushed during the current
// step sit above it and are excluded from the link contest, so the
// contest sees exactly the queue a two-phase send phase would have
// seen, and no packet moves twice in one step. Every step outcome is
// order-independent — the contest is decided by the strict (togo, id)
// order and grants are forwarded in link-id order — so queues and held
// sets evolve as identical multisets on both paths and the phase
// statistics (steps, hops, delivered, overshoot, MaxQueue) are
// bit-identical to the two-phase path at any worker count; the
// cross-worker determinism tests pin this equivalence.
//
// Gated (see Route) on: one worker, mesh topology, stranding disabled,
// no fault plan, no detouring policy, no load counting, and shards of
// at least a bitmap word (movingBits present).
func (st *stepState) fusedStep() {
	t0 := time.Now()
	n := st.net
	mb := st.movingBits
	nb := st.freshBits
	rb := st.inboxBits[0]
	clk := uint64(n.clock)
	clk32 := int32(n.clock)
	procs := n.procs
	nprocs := len(procs)
	aux := n.aux
	links := n.links
	movingProcs := st.movingProcs
	shardShift := st.shardShift
	// Loop invariants of the neighbor/link arithmetic, hoisted: the body
	// below runs once per hop, and st field loads the compiler cannot
	// cache across the recordErr call sites are measurable there.
	divs, shifts := st.divs, st.divShift
	mask, pw2 := st.sideMask, st.pow2
	side := n.Shape.Side
	torus := n.Shape.Torus
	greedy := st.greedy
	// Transit-path counters live in locals for the duration of the step
	// (one flush at the end): at one increment per hop, the per-slot
	// bounds-checked slice accesses of the two-phase bookkeeping are
	// measurable here.
	hops, togoDrop, maxQ := 0, 0, st.maxQueue[0]
	delivered, sumOver, maxOver := 0, 0, st.maxOver[0]
	var sojH *stats.Hist
	if st.soj {
		sojH = &st.sojourn[0]
	}
	// Stack-resident link contest table. The fused path never touches the
	// per-proc out slots: grantMask gates which entries of outQ are live,
	// so the table needs no clearing between processors (links = 2d <= 62
	// on any mesh within int32 arena capacity).
	var outQ [64]int32
	for sh := 0; sh < st.numShards; sh++ {
		if movingProcs[sh] == 0 {
			continue
		}
		lo := sh << shardShift
		hi := lo + st.shardSize
		if hi > nprocs {
			hi = nprocs
		}
		emptied := int32(0)
		for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
			// Snapshot the word: emptied senders clear their bits in
			// mb[wi] as the pass strips bits off this working copy.
			// (Same-step activations never touch mb — they park in
			// freshBits and merge after the pass.)
			word := mb[wi]
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
				if eligible == 0 {
					// Unreachable while activations defer through freshBits
					// (a set movingBits bit implies step-start entries);
					// kept as a costless guard on that invariant.
					continue
				}
				// The link-request contest of sendProc, over the eligible
				// prefix (a solo entry simply wins its link unopposed). The
				// prefix reslice is safe — the watermark boundary never
				// exceeds the queue length — and lets the loop and the
				// grant-table lookups below run without bounds checks. It
				// stays valid through the forward loop: forwards touch
				// other processors' queues, never this one's.
				mv := pr.moving[:eligible]
				var grantMask uint64
				for qi := range mv {
					e := &mv[qi]
					l := int(e.link)
					if l == int(linkUnknown) {
						l = st.nextLink(r, int(e.dst), int(e.class))
						if l >= links {
							st.recordErr(r, fmt.Errorf("engine: policy returned invalid link %d for packet %d at rank %d", l, e.id, r))
							e.link = -1
							continue
						}
						if l < 0 {
							l = -1
						}
						e.link = int16(l)
					}
					if l < 0 {
						continue
					}
					if grantMask>>uint(l)&1 == 0 {
						outQ[l] = int32(qi)
						grantMask |= 1 << uint(l)
					} else if ce := &mv[outQ[l]]; e.togo > ce.togo || (e.togo == ce.togo && e.id < ce.id) {
						outQ[l] = int32(qi)
					}
				}
				if grantMask == 0 {
					continue
				}
				// Forward every granted entry straight onto its receiver, in
				// link-id order: the fused counterpart of the inbox handoff
				// in sendProc plus the drain in deliverShard, inlined so the
				// hoisted invariants above stay in registers across hops.
				consumed := 0
				for m := grantMask; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					e := &mv[outQ[l]]
					dim := LinkDim(l)
					div := divs[dim]
					var c int
					if pw2 {
						c = (r >> shifts[dim]) & mask
					} else {
						c = (r / div) % side
					}
					recv := r
					legal := true
					if LinkDir(l) > 0 {
						if c < side-1 {
							recv = r + div
						} else if torus {
							recv = r - (side-1)*div
						} else {
							legal = false
						}
					} else {
						if c > 0 {
							recv = r - div
						} else if torus {
							recv = r + (side-1)*div
						} else {
							legal = false
						}
					}
					if !legal {
						// Leaves the packet in place, exactly like the
						// two-phase path.
						st.recordErr(r, fmt.Errorf("engine: policy routed packet %d off the mesh boundary at rank %d link %d", e.id, r, l))
						continue
					}
					next := e.togo - 1
					if next <= 0 && int(e.dst) != recv {
						st.recordErr(r, fmt.Errorf("engine: non-monotone policy: packet %d exhausted its distance budget away from its destination", e.id))
					}
					p2 := &procs[recv]
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
						nl := int16(-1)
						var nl2 int
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
							var rc, tc int
							if pw2 {
								sh := shifts[dim]
								rc = (recv >> sh) & mask
								tc = (int(e.dst) >> sh) & mask
							} else {
								rc = (recv / div) % side
								tc = (int(e.dst) / div) % side
							}
							if rc != tc {
								nl2 = l
							} else {
								nl2 = st.greedyNext(recv, int(e.dst), int(e.class))
							}
						} else {
							nl2 = st.policy.NextLink(recv, int(e.dst), int(e.class))
							if nl2 >= links {
								st.recordErr(recv, fmt.Errorf("engine: policy returned invalid link %d for packet %d at rank %d", nl2, e.id, recv))
								nl2 = -1
							}
						}
						if nl2 >= 0 {
							nl = int16(nl2)
						}
						if len(p2.moving) == 0 {
							// Empty -> non-empty: the same moving-processor
							// activation the two-phase delivery phase performs.
							// The bitmap bit is parked in freshBits and merged
							// after the pass — set directly in movingBits, a
							// receiver above the sender would be visited later
							// this very step only to skip its all-fresh queue.
							movingProcs[recv>>shardShift]++
							nb[recv>>6] |= 1 << (uint(recv) & 63)
						}
						if p2.fresh>>32 != clk {
							p2.fresh = clk<<32 | uint64(len(p2.moving))
						}
						p2.moving = append(p2.moving, pktRef{id: e.id, dst: e.dst, class: e.class, togo: next, link: nl})
					}
					// Occupancy high-water mark. The two-phase path samples
					// each receiver's queue after the send phase removed
					// departures; here the pass visits processors in
					// ascending rank, so a receiver below the sender has
					// already sent (its queue only grows from here on) and
					// can be sampled directly, while one above may still
					// hold entries that depart later this step — mark it in
					// the receiver bitmap (idle on the fused path) and let
					// the end-of-step sweep sample it, when the state is
					// final either way.
					if recv > r {
						rb[recv>>6] |= 1 << (uint(recv) & 63)
					} else if q := len(p2.moving) + len(p2.held); q > maxQ {
						maxQ = q
					}
					hops++
					togoDrop += int(e.togo) - int(next)
					e.id = noPacket
					consumed++
				}
				if consumed == 0 {
					continue
				}
				if consumed == eligible && eligible == len(pr.moving) {
					// Everything moved (the solo-entry common case): truncate
					// instead of rebuilding. The watermark is necessarily
					// stale here — a push this step would have stamped it and
					// appended, making len exceed the eligible prefix.
					pr.moving = pr.moving[:0]
					mb[wi] &^= 1 << uint(r-wbase)
					emptied++
					continue
				}
				// Rebuild: drop consumed winners from the eligible prefix,
				// keep the fresh suffix, and re-anchor the watermark to the
				// compacted prefix length so later pushes keep appending
				// above it.
				kept := pr.moving[:0]
				for qi := 0; qi < eligible; qi++ {
					if pr.moving[qi].id != noPacket {
						kept = append(kept, pr.moving[qi])
					}
				}
				keptOld := len(kept)
				for qi := eligible; qi < len(pr.moving); qi++ {
					kept = append(kept, pr.moving[qi])
				}
				pr.moving = kept
				if pr.fresh>>32 == clk {
					pr.fresh = clk<<32 | uint64(keptOld)
				}
				if len(pr.moving) == 0 {
					mb[wi] &^= 1 << uint(r-wbase)
					emptied++
				}
			}
		}
		if emptied > 0 {
			movingProcs[sh] -= emptied
		}
	}
	// Merge the deferred activations: freshBits must read all-zero again
	// before the next step (and before the paranoid checker runs).
	for wi, word := range nb {
		if word != 0 {
			mb[wi] |= word
			nb[wi] = 0
		}
	}
	// End-of-step sweep over the receivers whose occupancy could not be
	// sampled in place: their state is final now. Worker 0's inbox bitmap
	// doubles as the marker set — the fused path parks nothing in the
	// inbox, so the bitmap is otherwise idle — and is left all-clear for
	// the next step, exactly what the paranoid checker expects between
	// steps.
	for wi, word := range rb {
		if word == 0 {
			continue
		}
		rb[wi] = 0
		wbase := wi << 6
		for ; word != 0; word &= word - 1 {
			r := wbase + bits.TrailingZeros64(word)
			pr := &procs[r]
			if q := len(pr.moving) + len(pr.held); q > maxQ {
				maxQ = q
			}
		}
	}
	st.hops[0] += hops
	st.togoDrop[0] += togoDrop
	st.maxQueue[0] = maxQ
	st.delivered[0] += delivered
	st.sumOver[0] += sumOver
	st.maxOver[0] = maxOver
	st.busy[0] += time.Since(t0).Nanoseconds()
}

// deliverShard implements the delivery phase for processors [lo, hi):
// each flagged receiver drains its contiguous inbox strip, where the
// send phase parked incoming packets keyed by the sender's link id. On a
// 2-side torus both directions of a dimension reach the same neighbor;
// the double edge shows up as the strip's two distinct slots of that
// dimension. Senders are only reconstructed (from the slot's direction)
// when link-load counting is on — the hot path needs no coordinate math
// at all.
func (st *stepState) deliverShard(w, sh, lo, hi int) {
	n := st.net
	side := n.Shape.Side
	aux := n.aux
	inbox, links := n.inbox, n.links
	clock := int32(n.clock)
	// The shard-level pending flag got us here; the receivers within the
	// shard are the set bits of the shard's slice of the pending bitmaps,
	// OR-ed across the senders that wrote them. The bitmaps stay
	// cache-resident (N/8 bytes each), so finding the receivers costs a
	// few word loads per shard — where pre-scanning the shard's inbox
	// region for non-empty strips (2d entries per processor) was a
	// per-step sweep of the full transfer slab. The pool barrier between
	// the phases orders the senders' plain bitmap stores before these
	// reads. Claimed bits are cleared with plain stores when a word
	// belongs wholly to this shard (shardShift >= 6, the default);
	// smaller shards share words across workers and mask their bits out
	// atomically, so the reads are atomic loads (plain loads on amd64).
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		var word uint64
		for _, bm := range st.inboxBits {
			word |= atomic.LoadUint64(&bm[wi])
		}
		if word == 0 {
			continue
		}
		wbase := wi << 6
		whole := lo <= wbase
		if hb := hi - wbase; hb < 64 && hi < len(n.procs) {
			word &= uint64(1)<<uint(hb) - 1
			whole = false
		}
		if lo > wbase {
			word &= ^uint64(0) << uint(lo-wbase)
		}
		if word == 0 {
			continue
		}
		if whole {
			for _, bm := range st.inboxBits {
				bm[wi] = 0
			}
		} else {
			for k := range st.inboxBits {
				atomic.AndUint64(&st.inboxBits[k][wi], ^word)
			}
		}
		for ; word != 0; word &= word - 1 {
			r := wbase + bits.TrailingZeros64(word)
			base := r * links
			pr := &n.procs[r]
			wasEmpty := len(pr.moving) == 0
			for slot := 0; slot < links; slot++ {
				e := inbox[base+slot]
				if e.id == noPacket {
					continue
				}
				inbox[base+slot].id = noPacket
				st.hops[w]++
				if n.loads != nil {
					// The receiver owns this counter: one slot per
					// (sender, link) pair, indexed by the sender, is
					// touched by exactly one receiver per step.
					if st.mesh {
						// The mesh sender sits one hop against the slot's
						// direction, and the sender's link id is the slot.
						dim := LinkDim(slot)
						div := st.divs[dim]
						var c int
						if st.pow2 {
							c = (r >> st.divShift[dim]) & st.sideMask
						} else {
							c = (r / div) % side
						}
						sender := r
						if LinkDir(slot) > 0 { // sent on +1: sender one hop below
							if c > 0 {
								sender = r - div
							} else {
								sender = r + (side-1)*div
							}
						} else {
							if c < side-1 {
								sender = r + div
							} else {
								sender = r - (side-1)*div
							}
						}
						n.loads[sender*links+slot]++
					} else {
						sender, slink := n.Topo.SlotSender(r, slot)
						n.loads[sender*links+slink]++
					}
				}
				// The sender already advanced the packet's bookkeeping (with
				// the queue entry warm in its cache), resolved its next link,
				// and encoded completion in the entry's done bit — the
				// transit path below appends the entry straight onto the
				// moving queue, so delivery streams through memory instead
				// of chasing a scattered record per hop.
				if e.id&pktDone != 0 {
					id := e.id &^ pktDone
					pr.held = append(pr.held, id)
					st.delivered[w]++
					ab := int(id) * auxStride
					over := int((clock - aux[ab+auxBorn]) - aux[ab+auxBornD])
					st.sumOver[w] += over
					if over > st.maxOver[w] {
						st.maxOver[w] = over
					}
					if st.soj {
						st.sojourn[w].Observe(int64(clock - aux[ab+auxBorn]))
					}
				} else {
					pr.moving = append(pr.moving, e)
				}
			}
			// Occupancy can only grow by receiving (or at activation), so
			// sampling receivers right after their pulls preserves the exact
			// high-water mark.
			if q := len(pr.moving) + len(pr.held); q > st.maxQueue[w] {
				st.maxQueue[w] = q
			}
			if wasEmpty && len(pr.moving) > 0 {
				st.movingProcs[sh]++
				if st.movingBits != nil {
					st.movingBits[r>>6] |= 1 << (uint(r) & 63)
				}
			}
		}
	}
}

// diagnose captures a PacketDiag for the packet with the given queue
// entry at the given rank: its profitable links (the ones that would
// reduce its distance) and which of them the fault plan blocks right
// now. Read-only with respect to shared state, so shard workers may
// call it concurrently. The cold Packet record is resolved here —
// diagnostics are off the hot path by definition.
func (st *stepState) diagnose(rank int, e pktRef) PacketDiag {
	n := st.net
	dst := int(e.dst)
	d := PacketDiag{
		ID: n.pkt(e.id).ID, Key: n.pkt(e.id).Key, Rank: rank, Dst: dst,
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
// no packet left on a link across the step barrier (which also enforces
// one packet per link per step — a surviving slot would mean a second
// grant landed on an unconsumed one), packet conservation against the
// activation-time census, every held packet at its destination or
// explicitly stranded, and every moving packet's distance budget equal to
// its true distance.
func (st *stepState) checkInvariants(total int) error {
	n := st.net
	count := 0
	links := n.links
	for r := range n.procs {
		pr := &n.procs[r]
		for l, qi := range n.outs[r*links : (r+1)*links] {
			if qi != noPacket {
				return fmt.Errorf("engine: invariant violated: grant %d left on link %d of rank %d across a step barrier", qi, l, r)
			}
		}
		for l, e := range n.inbox[r*links : (r+1)*links] {
			if e.id != noPacket {
				return fmt.Errorf("engine: invariant violated: packet %d left in the inbox slot %d of rank %d across a step barrier", e.id, l, r)
			}
		}
		count += len(pr.moving) + len(pr.held)
		for _, id := range pr.held {
			p := n.pkt(id)
			if p.Dst != r && !p.stranded {
				return fmt.Errorf("engine: invariant violated: packet %d held at rank %d away from destination %d without being stranded", p.ID, r, p.Dst)
			}
		}
		if st.movingBits != nil {
			if got := st.movingBits[r>>6]&(1<<(uint(r)&63)) != 0; got != (len(pr.moving) > 0) {
				return fmt.Errorf("engine: invariant violated: rank %d holds %d moving packets but its moving bit reads %v", r, len(pr.moving), got)
			}
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
	for k, bm := range st.inboxBits {
		for wi, word := range bm {
			if word != 0 {
				return fmt.Errorf("engine: invariant violated: worker %d left inbox pending bits %#x for processors [%d,%d) across a step barrier", k, word, wi*64, wi*64+64)
			}
		}
	}
	if count != total {
		return fmt.Errorf("engine: invariant violated: %d packets in the network, %d activated", count, total)
	}
	return nil
}
