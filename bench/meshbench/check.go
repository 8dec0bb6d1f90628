package main

import (
	"fmt"
	"net/http"
	"slices"

	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/service"
)

// The checks below compare one operation's output with a reference the
// benchmark computed from the inputs before the timed region. Each
// returns nil for a correct output and the reason otherwise; the
// workloads count a non-nil answer as a failed operation.

// sortedKeySum is the reference for a sort: the KeySum digest of a
// Go-sorted copy of the input keys.
func sortedKeySum(keys []int64) string {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	return service.KeySum(sorted)
}

// checkSort verifies a sort result: certified sorted, nondecreasing
// final keys, and the same key multiset as the input (by digest).
func checkSort(res core.Result, want string) error {
	if !res.Sorted {
		return fmt.Errorf("sort: result not certified sorted")
	}
	if !slices.IsSorted(res.Final) {
		return fmt.Errorf("sort: final keys out of order")
	}
	if got := service.KeySum(res.Final); got != want {
		return fmt.Errorf("sort: key digest %s, want %s", got, want)
	}
	return nil
}

// checkDelivery verifies packet conservation after a routing phase:
// every injected packet is still in the network, the delivered,
// stranded and born-at-destination packets add up to the injected
// count, and every packet that was not stranded rests at its
// destination.
func checkDelivery(res engine.RouteResult, net *engine.Net, injected, atSource int) error {
	if got := net.TotalPackets(); got != injected {
		return fmt.Errorf("route: %d packets in the network, injected %d", got, injected)
	}
	if got := res.Delivered + len(res.Stranded) + atSource; got != injected {
		return fmt.Errorf("route: delivered %d + stranded %d + born at destination %d = %d, injected %d",
			res.Delivered, len(res.Stranded), atSource, got, injected)
	}
	atDst := 0
	net.ForEachHeld(func(rank int, p *engine.Packet) {
		if p.Dst == rank {
			atDst++
		}
	})
	if want := injected - len(res.Stranded); atDst != want {
		return fmt.Errorf("route: %d packets at their destination, want %d", atDst, want)
	}
	return nil
}

// checkSojourn verifies that the latency histogram saw exactly the
// delivered packets, both in the result summary and in the caller's
// accumulator.
func checkSojourn(res engine.RouteResult, histCount int64) error {
	if res.Sojourn.Count != int64(res.Delivered) || histCount != int64(res.Delivered) {
		return fmt.Errorf("traffic: sojourn counts %d (summary) and %d (histogram), delivered %d",
			res.Sojourn.Count, histCount, res.Delivered)
	}
	return nil
}

// jobRef is the reference answer for one service job: the digest of
// the sorted keys for a sort job, or the number of packets that must
// be delivered for a traffic job.
type jobRef struct {
	keySum    string
	delivered int64
}

// checkJob verifies one service response: 200, status done, and a
// result matching the reference.
func checkJob(code int, st service.JobStatus, ref jobRef) error {
	if code != http.StatusOK {
		return fmt.Errorf("service: HTTP %d (status %q, error %q)", code, st.Status, st.Error)
	}
	if st.Status != service.StatusDone {
		return fmt.Errorf("service: job %s status %q (error %q)", st.ID, st.Status, st.Error)
	}
	res := st.Result
	if res == nil || !res.Delivered {
		return fmt.Errorf("service: job %s result not delivered", st.ID)
	}
	if ref.keySum != "" && res.KeySum != ref.keySum {
		return fmt.Errorf("service: job %s keySum %s, want %s", st.ID, res.KeySum, ref.keySum)
	}
	if ref.delivered > 0 {
		got := int64(0)
		if res.Sojourn != nil {
			got = res.Sojourn.Count
		}
		if got != ref.delivered-int64(res.Stranded) {
			return fmt.Errorf("service: job %s sojourn count %d with %d stranded, want %d delivered",
				st.ID, got, res.Stranded, ref.delivered)
		}
	}
	return nil
}
