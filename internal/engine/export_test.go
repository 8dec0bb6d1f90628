package engine

// Snapshot returns the current processor of every packet in the network
// (moving and held), keyed by packet id: the tests' view of packet
// placement, for OnStep inspection; O(N + packets).
func (n *Net) Snapshot() map[int]int {
	out := make(map[int]int, n.nextID)
	for r := range n.procs {
		for _, e := range n.procs[r].moving {
			out[n.pkt(e.id).ID] = r
		}
		for _, id := range n.procs[r].held {
			out[n.pkt(id).ID] = r
		}
		// Packets sitting in outgoing slots between phases do not exist:
		// Route always completes the delivery phase before returning or
		// invoking OnStep, so out slots are empty here.
	}
	return out
}
