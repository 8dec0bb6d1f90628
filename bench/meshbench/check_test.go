package main

import (
	"net/http"
	"slices"
	"testing"

	"meshsort/internal/core"
	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/route"
	"meshsort/internal/service"
	"meshsort/internal/stats"
)

// TestCorruptedSortCountsAsFailed runs one real sort operation of the
// sort workload, corrupts its output in each way the checker must catch,
// and feeds every version through the workload's own verification and
// tally: only the intact one may pass.
func TestCorruptedSortCountsAsFailed(t *testing.T) {
	ins, err := sortInputs(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := ins.build(1).(*sortSim)
	defer s.close()
	st, err := s.run(0, nil, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	good := s.last
	good.Final = slices.Clone(good.Final)

	corrupt := []struct {
		name string
		f    func(r *core.Result)
	}{
		{"swapped", func(r *core.Result) {
			i := 0
			for r.Final[i] == r.Final[i+1] {
				i++
			}
			r.Final[i], r.Final[i+1] = r.Final[i+1], r.Final[i]
		}},
		{"changed", func(r *core.Result) { r.Final[len(r.Final)/2]++ }},
		{"truncated", func(r *core.Result) { r.Final = r.Final[:len(r.Final)-1] }},
		{"uncertified", func(r *core.Result) { r.Sorted = false }},
	}
	rep := &report{}
	ref := make([]*simCounts, 1)
	rep.tally(verify(s, 0, st, nil, ref))
	for _, c := range corrupt {
		s.last = good
		s.last.Final = slices.Clone(good.Final)
		c.f(&s.last)
		err := verify(s, 0, st, nil, ref)
		if err == nil {
			t.Errorf("%s output passed the check", c.name)
		}
		rep.tally(err)
	}
	// The same output with different simulated counts fails too.
	s.last = good
	drifted := st
	drifted.steps++
	rep.tally(verify(s, 0, drifted, nil, ref))

	if rep.attempted != 6 || rep.failed != 5 || rep.failRatio() != 5.0/6 {
		t.Fatalf("attempted %d failed %d fail_ratio %g, want 6, 5, 5/6 (errors %q)", rep.attempted, rep.failed, rep.failRatio(), rep.errs)
	}
}

// TestCorruptedRouteCountsAsFailed checks the delivery and sojourn
// checks on a real timed route, intact and with each count corrupted.
func TestCorruptedRouteCountsAsFailed(t *testing.T) {
	shape := grid.New(2, 4)
	net := engine.New(shape)
	arr := &engine.Arrivals{}
	atSource := 0
	for i := 0; i < shape.N(); i++ {
		p := net.NewPacket(int64(i), i)
		p.Dst = shape.N() - 1 - i
		if p.Dst == i {
			atSource++
		}
		arr.Add(int32(i/2), p)
	}
	var hist stats.Hist
	res, err := net.Route(route.NewGreedy(shape), engine.RouteOpts{Arrivals: arr, Sojourn: &hist})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDelivery(res, net, shape.N(), atSource); err != nil {
		t.Fatalf("intact route failed the check: %v", err)
	}
	if err := checkSojourn(res, hist.Count()); err != nil {
		t.Fatalf("intact sojourn failed the check: %v", err)
	}
	lost := res
	lost.Delivered--
	if checkDelivery(lost, net, shape.N(), atSource) == nil {
		t.Error("a route that lost a packet passed the check")
	}
	if checkDelivery(res, net, shape.N()+1, atSource) == nil {
		t.Error("a network holding fewer packets than injected passed the check")
	}
	if checkSojourn(res, hist.Count()+1) == nil {
		t.Error("a sojourn histogram with an extra sample passed the check")
	}
}

// TestCorruptedJobCountsAsFailed checks the service response check.
func TestCorruptedJobCountsAsFailed(t *testing.T) {
	ok := service.JobStatus{ID: "j-1", Status: service.StatusDone, Result: &service.Result{Delivered: true, KeySum: "abc"}}
	ref := jobRef{keySum: "abc"}
	if err := checkJob(http.StatusOK, ok, ref); err != nil {
		t.Fatalf("intact job failed the check: %v", err)
	}
	bad := map[string]func() (int, service.JobStatus){
		"429":       func() (int, service.JobStatus) { return http.StatusTooManyRequests, ok },
		"failed":    func() (int, service.JobStatus) { st := ok; st.Status = service.StatusFailed; return http.StatusOK, st },
		"no result": func() (int, service.JobStatus) { st := ok; st.Result = nil; return http.StatusOK, st },
		"wrong keys": func() (int, service.JobStatus) {
			st := ok
			st.Result = &service.Result{Delivered: true, KeySum: "abd"}
			return http.StatusOK, st
		},
	}
	for name, f := range bad {
		code, st := f()
		if checkJob(code, st, ref) == nil {
			t.Errorf("%s passed the check", name)
		}
	}
	soj := stats.LatencySummary{Count: 9}
	traffic := service.JobStatus{Status: service.StatusDone, Result: &service.Result{Delivered: true, Sojourn: &soj}}
	if checkJob(http.StatusOK, traffic, jobRef{delivered: 9}) != nil {
		t.Error("intact traffic job failed the check")
	}
	if checkJob(http.StatusOK, traffic, jobRef{delivered: 10}) == nil {
		t.Error("traffic job missing a delivery passed the check")
	}
}
