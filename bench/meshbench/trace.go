package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of a traced run: a call from the benchmark
// into one layer's public functions, or an interval a layer reports
// about itself (an engine step loop from RouteResult.Elapsed, a pipeline
// phase between two Observer callbacks). Spans of one operation share
// Op; Parent indexes the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps the spans of a traced run in memory until it ends. A nil
// *tracer means tracing is off; workloads test for nil before recording.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// open starts a span and returns its index, for children to name as
// their parent and for close.
func (t *tracer) open(name string, start time.Time, parent, op int32) int32 {
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32, end time.Time) {
	t.spans[i].End = int64(end.Sub(t.t0))
}

// add records a span whose start and end are both known.
func (t *tracer) add(name string, start, end time.Time, parent, op int32) int32 {
	i := t.open(name, start, parent, op)
	t.close(i, end)
	return i
}

// selfMetrics reports each layer's self time per operation, sorted by
// layer: the summed duration of its spans minus the part of each that
// its child spans cover. A span's layer is its name up to the first dot.
// Children of one span never overlap, which holds for every span the
// workloads record.
func (t *tracer) selfMetrics(ops int) []metric {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += s.End - s.Start - covered[i]
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	out := make([]metric, 0, len(layers))
	for _, l := range layers {
		ms := float64(self[l]) / float64(time.Millisecond) / float64(max(ops, 1))
		out = append(out, metric{name: "self_ms." + l, unit: "ms", value: ms})
	}
	return out
}

// write stores the spans as JSON lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
