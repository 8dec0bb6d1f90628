package route

import (
	"meshsort/internal/engine"
	"meshsort/internal/stats"
	"meshsort/internal/topo"
	"meshsort/internal/traffic"
)

// RunTimedLoad routes a traffic workload under an injection schedule:
// the load's demand pairs are compiled into an arrivals plan (packets
// born mid-run at their scheduled clocks) and routed greedily with
// per-packet sojourn accounting — the online-routing measurement setup
// of Even–Medina–Patt-Shamir, where latency under a given arrival
// process is the object of study rather than the one-shot makespan.
//
// The returned RouteResult carries the sojourn percentiles
// (RouteResult.Sojourn); the network is returned for callers that want
// to inspect final packet placement. Unlike the batch runners there is
// no closed-form step bound to record: direct greedy routing of an
// arbitrary timed (ℓ,k) demand has no theorem bound, the latency
// distribution is the measurement.
func RunTimedLoad(t topo.Topology, load traffic.Load, sched traffic.Schedule, opts BatchOpts) (engine.RouteResult, *engine.Net, error) {
	// The plan is built inside Prepare (packet creation needs the reset
	// network), but the engine reads it from RouteOpts, which are fixed
	// at runner configuration — so the options carry an empty plan that
	// Prepare fills in place.
	arr := &engine.Arrivals{}
	return opts.route(t, "timed-"+load.String(), arr, new(stats.Hist), func(net *engine.Net) error {
		plan, err := traffic.Build(net, load, sched)
		if err != nil {
			return err
		}
		pkts := make([]*engine.Packet, len(plan.IDs))
		for i, id := range plan.IDs {
			pkts[i] = net.Packet(id)
		}
		opts.assignClasses(t, pkts)
		*arr = *plan
		return nil
	})
}
