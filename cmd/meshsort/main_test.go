package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meshsort/internal/engine"
	"meshsort/internal/grid"
	"meshsort/internal/perm"
	"meshsort/internal/pipeline"
	"meshsort/internal/route"
	"meshsort/internal/service"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenRuns are the invocations whose text report (testdata/<name>.txt)
// and wall-clock-free -json result (testdata/<name>.json) are pinned.
// None of them prints a wall-clock figure.
var goldenRuns = []struct{ name, args string }{
	{"simple_d2_n8", "-alg simple -d 2 -n 8"},
	{"simple_d3_n16_k2_alt", "-alg simple -d 3 -n 16 -k 2 -alt"},
	{"simple_d3_n8_real", "-alg simple -d 3 -n 8 -real"},
	{"copy_d3_n8_b4", "-alg copy -d 3 -n 8 -b 4"},
	{"torussort_d2_n8", "-alg torussort -d 2 -n 8"},
	{"full_d2_n8", "-alg full -d 2 -n 8"},
	{"oddeven_d2_n8", "-alg oddeven -d 2 -n 8"},
	{"shear_d2_n8", "-alg shear -d 2 -n 8"},
	{"route_d3_n8_transpose", "-alg route -d 3 -n 8 -perm transpose"},
	{"select_d3_n8", "-alg select -d 3 -n 8"},
	{"select_d3_n8_faults", "-alg select -d 3 -n 8 -faults 0.05 -patience 3"},
	{"greedyroute_d3_n16_faults", "-alg greedyroute -d 3 -n 16 -faults 0.05 -fault-seed 7"},
	{"greedyroute_d2_n8_heat", "-alg greedyroute -d 2 -n 8 -heat -policy dimorder -classes zero"},
	{"cliqueroute_n64_k3_faults", "-alg cliqueroute -n 64 -k 3 -faults 0.01"},
	{"traffic_d2_n16", "-alg traffic -d 2 -n 16 -load k:2 -inject trickle:4"},
}

// runCLI runs the command in-process and returns its exit status,
// stdout and stderr.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", file, got, want)
	}
}

// TestGoldenText pins the text report byte for byte.
func TestGoldenText(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(strings.Fields(g.args)...)
			if code != 0 || stderr != "" {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			checkGolden(t, g.name+".txt", stdout)
		})
	}
}

// TestGoldenJSON pins the -json result with the per-phase throughput
// figures (wall-clock measurements) zeroed, so omitted.
func TestGoldenJSON(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(append(strings.Fields(g.args), "-json")...)
			if code != 0 || stderr != "" {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			var res service.Result
			if err := json.Unmarshal([]byte(stdout), &res); err != nil {
				t.Fatal(err)
			}
			for i := range res.Phases {
				ph := &res.Phases[i]
				ph.StepsPerSec, ph.PacketsPerStep, ph.WorkerUtil = 0, 0, 0
			}
			out, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g.name+".json", string(out)+"\n")
		})
	}
}

// TestHelpOutput pins -h: the flag set, defaults and help texts.
func TestHelpOutput(t *testing.T) {
	code, stdout, stderr := runCLI("-h")
	if code != 0 || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", code, stdout)
	}
	head := "Usage of " + os.Args[0] + ":\n"
	if !strings.HasPrefix(stderr, head) {
		t.Fatalf("-h: stderr starts %q, want %q", stderr[:min(len(stderr), 80)], head)
	}
	checkGolden(t, "help.txt", strings.TrimPrefix(stderr, head))
}

// TestExitCodes: a rejected spec prints nothing on stdout, one line on
// stderr, and exits 2; a run that fails exits 1 after the header.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args string
		code int
		want string // substring of stderr
	}{
		{"bogus alg", "-alg bogus", 2, `unknown alg "bogus"`},
		{"bogus perm", "-alg route -d 2 -n 8 -perm bogus", 2, `unknown perm "bogus"`},
		{"bogus topo", "-topo bogus", 2, `unknown topology "bogus"`},
		{"policy without greedyroute", "-alg simple -policy dimorder", 2, "alg=greedyroute only"},
		{"k with route", "-alg route -k 2", 2, "only k=1"},
		{"block side on oddeven", "-alg oddeven -d 2 -n 8 -b 4", 2, "not alg=oddeven"},
		{"faults on oddeven", "-alg oddeven -d 2 -n 8 -faults 0.1", 2, "not alg=oddeven"},
		{"patience on shear", "-alg shear -d 2 -n 8 -patience 5", 2, "not alg=shear"},
		{"side too small", "-alg simple -d 2 -n 1", 2, "must be ≥ 2"},
		{"stuck run", "-alg greedyroute -d 2 -n 4 -b 2 -faults 0.9 -patience -1", 1, "routing made no progress"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(strings.Fields(tc.args)...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if code == 2 && stdout != "" {
				t.Errorf("rejected spec wrote to stdout: %q", stdout)
			}
			if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q, want one line containing %q", stderr, tc.want)
			}
		})
	}
}

// TestNoAdmissionCeilings: the service's admission ceilings (512 clique
// nodes, side 64) do not apply to the CLI.
func TestNoAdmissionCeilings(t *testing.T) {
	for _, args := range []string{
		"-alg cliqueroute -n 1000 -k 2",
		"-alg greedyroute -d 2 -n 128",
	} {
		code, stdout, stderr := runCLI(strings.Fields(args)...)
		if code != 0 || !strings.Contains(stdout, "greedy routing") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
}

// TestPhaseTraces: -trace lines are the service.PhaseTrace encoding,
// engine counters included.
func TestPhaseTraces(t *testing.T) {
	var buf bytes.Buffer
	traceTo(&buf)(pipeline.PhaseStat{Name: "a", Kind: "route", Steps: 3, Bound: 5, MaxOvershoot: 2, Hops: 40})
	var got service.PhaseTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := service.PhaseTrace{Name: "a", Kind: "route", Steps: 3, Bound: 5, MaxOvershoot: 2, Hops: 40}
	if got != want || strings.Count(buf.String(), "\n") != 1 {
		t.Errorf("trace line %q, want one line encoding %+v", buf.String(), want)
	}
}

func TestPrintHeatmapRuns(t *testing.T) {
	// Smoke: the heatmap renderer must handle loaded and empty networks
	// in 2 and 3 dimensions without panicking.
	for _, s := range []grid.Shape{grid.New(2, 8), grid.New(3, 4)} {
		net := engine.New(s)
		net.SetCountLoads(true)
		prob := perm.Reversal(s)
		pkts := make([]*engine.Packet, prob.Size())
		for i := range pkts {
			pkts[i] = net.NewPacket(0, prob.Src[i])
			pkts[i].Dst = prob.Dst[i]
		}
		net.Inject(pkts)
		if _, err := net.Route(route.NewGreedy(s), engine.RouteOpts{}); err != nil {
			t.Fatal(err)
		}
		printHeatmap(&bytes.Buffer{}, net)
	}
	printHeatmap(&bytes.Buffer{}, engine.New(grid.New(2, 4))) // no loads counted
}
