package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestMain lets this test binary stand in for meshbench as service-mix's
// service child, which startRemote runs as "<binary> -serve <dir>".
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-serve" {
		if err := serve(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// smoke test checks the program against.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// reportMetrics are the further figures each workload's text report
// names, untraced and traced; every report's first line also gives
// attempted, failed and fail_ratio.
var reportMetrics = map[string][2][]string{
	"sort": {
		{"op_ms_p50", "setup_s.raw", "cal_ms_p50", "op_ms_p90", "ops_per_s"},
		{"pipeline.route_ms", "pipeline.prepare_ms", "pipeline.oracle_ms", "pipeline.check_ms", "pipeline.tail_ms",
			"engine.ns_per_step_1w", "engine.ns_per_step_2w", "nproc", "gomaxprocs", "self_ms.engine", "self_ms.pipeline"},
	},
	"faulted-route": {
		{"op_ms_p50", "setup_s.raw", "cal_ms_p50", "op_ms_p90", "ops_per_s", "stranded_pkts"},
		{"engine.reset_ms", "engine.inject_ms", "self_ms.engine"},
	},
	"traffic": {
		{"op_ms_p50", "setup_s.raw", "cal_ms_p50", "op_ms_p90", "ops_per_s", "sojourn_p50_steps", "sojourn_p99_steps"},
		{"traffic.plan_ms", "traffic.ns_per_step", "self_ms.engine", "self_ms.traffic"},
	},
	"service-mix": {
		{"job_ms_p50", "setup_s.raw", "cal_ms_p50", "job_ms_p99", "hit_ms_p50", "sustained_jobs_per_s", "gen_late_ms_p99"},
		{"service.decode_us_p50", "service.encode_us_p50", "service.submit_us_p50", "service.submit_us_p99",
			"service.wait_ms_p50", "service.wait_ms_p99", "service.sim_ms_p50", "service.http_ms_p50.derived",
			"self_ms.service", "self_ms.engine"},
	},
}

// baselineJSON is the part of bench/baseline.json the smoke test checks
// the simulated steps against.
type baselineJSON struct {
	Workloads map[string]struct {
		Sets []struct {
			Metrics map[string]struct {
				Values []float64 `json:"values"`
			} `json:"metrics"`
		} `json:"sets"`
	} `json:"workloads"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestSmoke runs every workload at 1/50 of the benchmark's run length
// with -short (under 10 s in all on two cores), 1/10 without, once with
// tracing off and once traced. Every metric BENCHMARK.json and the text report name
// must be there, no operation may fail, and the two runs must agree on
// the simulated steps. A simulator workload's sim_steps depends on its
// seeded inputs alone, so it must also equal the baseline's at seed 1
// exactly.
func TestSmoke(t *testing.T) {
	var bm benchmarkJSON
	readJSON(t, filepath.Join("..", "..", "BENCHMARK.json"), &bm)
	var base baselineJSON
	readJSON(t, filepath.Join("..", "baseline.json"), &base)
	scale := time.Duration(10)
	if testing.Short() {
		scale = 50
	}
	if len(bm.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bm.Workloads), len(workloadNames))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := config{
				seed:    1,
				dur:     time.Duration(bm.RunSeconds) * time.Second / scale,
				scratch: t.TempDir(),
				setups:  1,
				// Phases of a few dozen jobs on a busy test machine: the
				// lateness guard is the full run's business.
				maxLate: time.Second,
			}
			plain, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.trace = true
			cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
			traced, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range []*report{plain, traced} {
				if rep.failed != 0 || rep.attempted == 0 {
					t.Errorf("attempted %d, failed %d: %q", rep.attempted, rep.failed, rep.errs)
				}
			}
			if len(plain.e2e) != len(bm.EndToEnd) || len(traced.layer) != len(bm.PerLayer) {
				t.Errorf("%d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(plain.e2e), len(traced.layer), len(bm.EndToEnd), len(bm.PerLayer))
			}
			for _, m := range bm.EndToEnd {
				got, ok := find(plain.e2e, m.Name)
				if !ok || got.unit != m.Unit || !(got.value > 0) {
					t.Errorf("end-to-end %s: got %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			for _, m := range bm.PerLayer {
				if got, ok := find(traced.layer, m.Name); !ok || got.unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			for i, rep := range []*report{plain, traced} {
				for _, n := range reportMetrics[name][i] {
					if _, ok := find(rep.info, n); !ok {
						t.Errorf("text report (trace %d) lacks %s", i, n)
					}
				}
			}
			if _, err := os.Stat(cfg.spans); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
			if name != "service-mix" {
				// service-mix's traced run offers a different slice of its job
				// stream; it checks its own runs against each other.
				a, _ := find(plain.e2e, "sim_steps")
				b, _ := find(traced.info, "sim_steps")
				if a.value != b.value {
					t.Errorf("sim_steps %g untraced, %g traced", a.value, b.value)
				}
				var want []float64
				for _, set := range base.Workloads[name].Sets {
					want = append(want, set.Metrics["sim_steps"].Values...)
				}
				if len(want) == 0 || slices.ContainsFunc(want, func(v float64) bool { return v != a.value }) {
					t.Errorf("sim_steps %g, the baseline's runs at seed 1 read %v", a.value, want)
				}
			}
		})
	}
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}
