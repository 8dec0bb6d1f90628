package engine

import (
	"hash/fnv"
	"slices"
)

// Snapshot returns the current processor of every packet in the network
// (moving and held), keyed by packet id: the tests' view of packet
// placement, for OnStep inspection; O(N + packets).
func (n *Net) Snapshot() map[int]int {
	out := make(map[int]int, n.nextID)
	for r := range n.procs {
		for _, e := range n.procs[r].moving {
			out[n.Packet(e.id).ID] = r
		}
		for _, id := range n.procs[r].held {
			out[n.Packet(id).ID] = r
		}
		// No packet is in transit here: Route drains every outbox before
		// returning or invoking OnStep.
	}
	return out
}

// CensusHash hashes the network's placement as a multiset: the sorted
// (rank, id, moving) triple of every packet, moving and held. Queue
// order is deliberately left out — it is fixed for a given worker count
// but unspecified across worker counts (see the package docs).
func (n *Net) CensusHash() uint64 {
	var ts [][3]int64
	for r := range n.procs {
		for _, e := range n.procs[r].moving {
			ts = append(ts, [3]int64{int64(r), int64(e.id), 1})
		}
		for _, id := range n.procs[r].held {
			ts = append(ts, [3]int64{int64(r), int64(id), 0})
		}
	}
	slices.SortFunc(ts, func(a, b [3]int64) int { return slices.Compare(a[:], b[:]) })
	h := fnv.New64a()
	var buf [24]byte
	for _, t := range ts {
		for i, v := range t {
			for j := 0; j < 8; j++ {
				buf[i*8+j] = byte(uint64(v) >> (8 * j))
			}
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
