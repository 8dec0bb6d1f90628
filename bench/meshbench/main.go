// Command meshbench is the repository's benchmark: it measures the mesh
// simulator and the job service end to end, and with -trace 1 layer by
// layer. See bench/README.md for the workloads, the metrics and how to
// read a trace.
//
// Run one workload (the form BENCHMARK.json names), or all four, each in
// its own child process, when -workload is empty:
//
//	bash bench/run.sh --workload sort --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with -trace 0,
// per-layer with -trace 1).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// workloadNames lists the workloads in the order an all-workload run
// takes them.
var workloadNames = []string{"sort", "faulted-route", "traffic", "service-mix"}

// config is one workload run's settings.
type config struct {
	seed    uint64
	dur     time.Duration // measured time of the run
	trace   bool
	spans   string        // where a traced run writes its spans
	scratch string        // directory for journals and other run files
	setups  int           // set-ups per run; setup_s is their median
	maxLate time.Duration // generator lateness (p99) past which service-mix is invalid
}

// scratchDir holds what a run writes, under the directory it runs in.
const scratchDir = ".bench_build/meshbench"

func main() {
	workload := flag.String("workload", "", "workload to run: sort, faulted-route, traffic or service-mix; empty runs all four, each in a child process")
	seed := flag.Uint64("seed", 1, "seed every input is generated from (1 is the default, 2 is held out for claims)")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload run")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced run; 0 the end-to-end metrics")
	spans := flag.String("spans", "", "file a traced run writes its spans to (default "+scratchDir+"/spans-<workload>.jsonl)")
	serveDir := flag.String("serve", "", "run the job service for service-mix, keeping its journal under this directory (internal)")
	flag.Parse()
	if *serveDir != "" {
		if err := serve(*serveDir); err != nil {
			fmt.Fprintf(os.Stderr, "meshbench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "meshbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "meshbench: -seconds must be positive and no arguments may follow the flags")
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		spans:   *spans,
		scratch: scratchDir,
		setups:  9,
		maxLate: 5 * time.Millisecond,
	}
	if *workload == "" {
		os.Exit(runAll(cfg))
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(scratchDir, "spans-"+*workload+".jsonl")
	}
	rep, err := runWorkload(*workload, cfg)
	if rep != nil {
		rep.writeText(os.Stdout, cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := rep.writeJSON(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "meshbench: %v\n", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process.
func runWorkload(name string, cfg config) (*report, error) {
	if name == "service-mix" {
		return runService(cfg)
	}
	wl, ok := simWorkloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return runSim(cfg, name, wl)
}

// runAll runs every workload in a child process of its own, so that
// set-up time and peak memory belong to that workload alone, and prints
// each child's report followed by one combined result line. It returns
// the exit code.
func runAll(cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshbench: %v\n", err)
		return 1
	}
	combined := result{Correct: true, Metrics: map[string]resultValue{}}
	code := 0
	for _, name := range workloadNames {
		args := []string{
			"-workload", name,
			"-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.dur.Seconds(), 'g', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
		}
		if cfg.spans != "" {
			args = append(args, "-spans", cfg.spans+"."+name)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		var res result
		if err == nil {
			err = json.Unmarshal(lastLine(out), &res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "meshbench: workload %s: %v\n", name, err)
			combined.Correct = false
			code = 1
			continue
		}
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			combined.Metrics[name+"/"+k] = v
		}
	}
	if !combined.Correct {
		code = 1
	}
	b, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return code
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
