package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"meshsort/internal/core"
	"meshsort/internal/grid"
	"meshsort/internal/pipeline"
	"meshsort/internal/service"
	"meshsort/internal/traffic"
	"meshsort/internal/xmath"
)

// The service-mix workload: meshsortd's job service behind its HTTP
// handler on a loopback server, offered an open-loop job stream.
const (
	svcConns     = 2     // keep-alive client connections (nproc is 2)
	svcRate      = 300.0 // jobs/s of the fixed-rate phase
	capLo, capHi = 50.0, 3200.0
	capProbes    = 6
	p99Limit     = 50 * time.Millisecond // latency limit a sustained rate must meet
	fixedSpecs   = 16                    // distinct specs the repeats draw from
	// The fixed-rate phase samples the calibration sort this often: about
	// 3% of one processor, 200 samples in a 20 s run.
	calPeriod = 50 * time.Millisecond
	// Shares of the run the phases take: the fixed-rate phase and the six
	// capacity probes fill it; the warm-up comes first.
	warmShare  = 0.05
	fixedShare = 0.5
	probeShare = 0.07
)

// Job kinds of the mix, and how many of each every block of 20 jobs
// holds: 50% fresh small sorts, 25% repeats (cache hits), 15% timed
// traffic, 10% fresh large sorts (a second runner shape).
const (
	kindSmall = iota
	kindRepeat
	kindTraffic
	kindLarge
)

var mixBlock = func() []int {
	var b []int
	for kind, count := range [...]int{kindSmall: 10, kindRepeat: 5, kindTraffic: 3, kindLarge: 2} {
		for i := 0; i < count; i++ {
			b = append(b, kind)
		}
	}
	return b
}()

// svcJob is one job of the stream: the request body a client sends and
// the reference answer it must get back.
type svcJob struct {
	body []byte
	ref  jobRef
}

// jobStream generates the job mix from a seed: the same seed always
// gives the same jobs in the same order.
type jobStream struct {
	rng   *xmath.RNG
	fixed []svcJob
	block []int
}

func newJobStream(rng *xmath.RNG) (*jobStream, error) {
	js := &jobStream{rng: rng}
	for i := 0; i < fixedSpecs; i++ {
		j, err := js.sortJob(8)
		if err != nil {
			return nil, err
		}
		js.fixed = append(js.fixed, j)
	}
	return js, nil
}

// take returns the next n jobs of the stream.
func (js *jobStream) take(n int) ([]svcJob, error) {
	out := make([]svcJob, 0, n)
	for len(out) < n {
		if len(js.block) == 0 {
			js.block = append(js.block, mixBlock...)
			js.rng.Shuffle(js.block)
		}
		kind := js.block[0]
		js.block = js.block[1:]
		var j svcJob
		var err error
		switch kind {
		case kindSmall:
			j, err = js.sortJob(8)
		case kindRepeat:
			j = js.fixed[js.rng.Intn(len(js.fixed))]
		case kindTraffic:
			j, err = js.trafficJob()
		case kindLarge:
			j, err = js.sortJob(16)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, j)
	}
	return out, nil
}

// seed draws a fresh nonzero job seed (0 would canonicalize to 1).
func (js *jobStream) seed() uint64 { return js.rng.Uint64()>>1 + 1 }

// sortJob is a fresh SimpleSort job on the d=3 mesh of side n. Its
// reference is the digest of the sorted keys the service will draw,
// which it seeds with the spec seed + 1.
func (js *jobStream) sortJob(n int) (svcJob, error) {
	spec := service.JobSpec{Alg: service.AlgSimple, D: 3, N: n, Seed: js.seed()}
	body, err := json.Marshal(spec)
	if err != nil {
		return svcJob{}, err
	}
	keys := core.RandomKeys(grid.New(spec.D, spec.N), 1, spec.Seed+1)
	return svcJob{body: body, ref: jobRef{keySum: sortedKeySum(keys)}}, nil
}

// trafficJob is a fresh timed 2-relation trickled into the d=3 n=8
// mesh. Its reference is how many packets must be delivered: every
// demand pair whose source is not its destination.
func (js *jobStream) trafficJob() (svcJob, error) {
	spec := service.JobSpec{Alg: service.AlgTraffic, D: 3, N: 8, Load: "k:2", Inject: "trickle:2", Seed: js.seed()}
	body, err := json.Marshal(spec)
	if err != nil {
		return svcJob{}, err
	}
	load, err := traffic.ParseLoad(spec.Load)
	if err != nil {
		return svcJob{}, err
	}
	load.Seed = spec.Seed
	pairs, err := load.Pairs(grid.New(spec.D, spec.N).N())
	if err != nil {
		return svcJob{}, err
	}
	moving := 0
	for _, p := range pairs {
		if p.Src != p.Dst {
			moving++
		}
	}
	return svcJob{body: body, ref: jobRef{delivered: int64(moving)}}, nil
}

// openService starts the job service at its default options with a
// journal (fsync interval) in a fresh directory under root.
func openService(root string) (svc *service.Service, dir string, err error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, "", err
	}
	dir, err = os.MkdirTemp(root, "journal-")
	if err != nil {
		return nil, "", err
	}
	svc, err = service.Open(service.Options{
		JournalPath:  filepath.Join(dir, "jobs.jsonl"),
		JournalFsync: service.FsyncInterval,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return svc, dir, nil
}

// serve runs the job service behind its HTTP handler on a loopback port,
// printing the base URL as its one line of output, until standard input
// closes. It is the child process service-mix measures.
func serve(root string) error {
	lowerPriority()
	svc, dir, err := openService(root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("http://%s\n", ln.Addr())
	// Returns when the parent closes our stdin, or dies; shut down either way.
	_, _ = io.Copy(io.Discard, os.Stdin)
	srv.Close()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// serveNice is the nice value the service child runs at: when it and
// the load generator compete for a processor, the generator wins, so a
// job is sent when it is due and its wait shows up as server latency.
const serveNice = 10

// lowerPriority sets every thread of this process to serveNice. Linux
// keeps a nice value per thread and new threads inherit their creator's,
// so threads the runtime starts later follow.
func lowerPriority() {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return // not Linux: run at normal priority
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			// Best effort: at normal priority the run stays valid, only the
			// generator's punctuality suffers, and the run measures that.
			_ = syscall.Setpriority(syscall.PRIO_PROCESS, tid, serveNice)
		}
	}
}

// remote is the job service running in a child process of its own, so
// that the load generator here never waits for a processor the service
// is using, and the child's start-up and memory are the service's alone.
type remote struct {
	cmd    *exec.Cmd
	stdin  io.Closer
	url    string
	client *http.Client
}

// startRemote starts a service child and waits until it listens.
func startRemote(root string) (*remote, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve", root)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stdin.Close()
		cmd.Wait()
		return nil, fmt.Errorf("service child did not report its address: %w", err)
	}
	return &remote{
		cmd: cmd, stdin: stdin, url: strings.TrimSpace(line),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns},
			Timeout:   time.Minute,
		},
	}, nil
}

// stop shuts the child down, waits for it to exit, and returns its peak
// resident set size in MiB.
func (r *remote) stop() (float64, error) {
	r.client.CloseIdleConnections()
	r.stdin.Close()
	if err := r.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("service child: %w", err)
	}
	ru, ok := r.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, nil
	}
	return float64(ru.Maxrss) / 1024, nil
}

// local is a job service in this process, for the in-process replays.
type local struct {
	svc *service.Service
	dir string
}

func openLocal(root string) (*local, error) {
	svc, dir, err := openService(root)
	if err != nil {
		return nil, err
	}
	return &local{svc: svc, dir: dir}, nil
}

func (l *local) close() {
	l.svc.Close()
	os.RemoveAll(l.dir)
}

// outcome is what happened to one offered job.
type outcome struct {
	sent bool
	due  time.Time // when the generator was due to send it
	end  time.Time // when its full response was in hand
	code int
	body []byte // the response, decoded and checked after the phase

	// In-process path only: when a consumer took the job, and when
	// DecodeSpec, SubmitWith and the wait for Done returned; end follows
	// encoding the snapshot.
	took, decoded, submitted, finished time.Time
}

// phase is the result of offering jobs at a fixed rate.
type phase struct {
	jobs []svcJob
	out  []outcome
	gen  genStats
}

// genStats describes the generator of one open-loop phase.
type genStats struct {
	late       []time.Duration // how late each job was dispatched
	backlogMid int             // jobs waiting for a connection half-way
	backlogEnd int             // and after the last dispatch
	aborted    bool            // the backlog passed the abort limit
}

// openLoop offers n jobs at rate: one generator goroutine dispatches
// job i at start + i/rate, however far behind the consumers are, and
// conns consumer goroutines each run do on the jobs they take. A job is
// timed from its due time, so waiting for a free consumer counts. The
// phase gives up once more than abortBacklog jobs wait (0: never).
func openLoop(n int, rate float64, conns, abortBacklog int, do func(i int, due time.Time)) genStats {
	var g genStats
	// Sized to the number of sends, so the generator never blocks.
	ch := make(chan int, n)
	dues := make([]time.Time, n)
	var taken atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				taken.Add(1)
				do(i, dues[i])
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		g.late = append(g.late, time.Since(due))
		dues[i] = due
		ch <- i
		backlog := i + 1 - int(taken.Load())
		if i == n/2 {
			g.backlogMid = backlog
		}
		g.backlogEnd = backlog
		if abortBacklog > 0 && backlog > abortBacklog {
			g.aborted = true
			break
		}
	}
	close(ch)
	wg.Wait()
	return g
}

// runHTTP offers jobs to the service child over HTTP at rate.
func (x *remote) runHTTP(jobs []svcJob, rate float64, abortBacklog int) *phase {
	ph := &phase{jobs: jobs, out: make([]outcome, len(jobs))}
	ph.gen = openLoop(len(jobs), rate, svcConns, abortBacklog, func(i int, due time.Time) {
		x.post(ph, i, due)
	})
	return ph
}

// post sends job i and records its outcome, timed from due.
func (x *remote) post(ph *phase, i int, due time.Time) {
	o := &ph.out[i]
	o.sent, o.due = true, due
	resp, err := x.client.Post(x.url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(ph.jobs[i].body))
	if err != nil {
		o.end = time.Now()
		o.body = []byte(err.Error())
		return
	}
	o.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	o.code = resp.StatusCode
	if err != nil {
		o.code = 0
	}
}

// runInProcess offers jobs straight to the service calls the HTTP
// handler makes — DecodeSpec, SubmitWith, Done, encoding the snapshot.
// With timed set it also stamps the time each call returns, which is
// all the tracing the in-process path does.
func (x *local) runInProcess(jobs []svcJob, rate float64, timed bool) *phase {
	ph := &phase{jobs: jobs, out: make([]outcome, len(jobs))}
	stamp := func(t *time.Time) {
		if timed {
			*t = time.Now()
		}
	}
	ph.gen = openLoop(len(jobs), rate, svcConns, 0, func(i int, due time.Time) {
		o := &ph.out[i]
		o.sent, o.due = true, due
		stamp(&o.took)
		spec, err := service.DecodeSpec(bytes.NewReader(jobs[i].body))
		stamp(&o.decoded)
		var job *service.Job
		if err == nil {
			job, err = x.svc.SubmitWith(spec, service.SubmitOpts{})
		}
		stamp(&o.submitted)
		if err != nil {
			o.end, o.code, o.body = time.Now(), http.StatusBadRequest, []byte(err.Error())
			return
		}
		<-job.Done()
		stamp(&o.finished)
		o.body, err = json.Marshal(job.Snapshot())
		o.end, o.code = time.Now(), http.StatusOK
		if err != nil {
			o.code = http.StatusInternalServerError
		}
	})
	return ph
}

// addSpans records the spans of a checked in-process phase: each job's
// service calls under a root running from its due time, and the engine
// step loop its result reports at the end of its wait.
func addSpans(tr *tracer, r phaseResult) {
	loops := make(map[int]time.Duration, len(r.sims))
	for _, s := range r.sims {
		loops[s.in] = s.st.loop
	}
	for i, o := range r.o {
		if !o.sent || o.finished.IsZero() {
			continue
		}
		op := int32(i)
		root := tr.open("bench.job", o.due, -1, op)
		tr.add("service.decode", o.took, o.decoded, root, op)
		tr.add("service.submit", o.decoded, o.submitted, root, op)
		w := tr.add("service.wait", o.submitted, o.finished, root, op)
		if loop := loops[i]; loop > 0 {
			tr.add("engine.loop", o.finished.Add(-loop), o.finished, w, op)
		}
		tr.add("service.encode", o.finished, o.end, root, op)
		tr.close(root, o.end)
	}
}

// jobStats gathers a job result's engine figures from its phase traces.
// The service's runners use its default engine pool size.
func jobStats(res *service.Result) opStats {
	st := opStats{workers: max(1, runtime.GOMAXPROCS(0)/4)} // service.Options default: 4 runners share GOMAXPROCS
	st.steps = res.TotalSteps
	st.maxQueue = res.MaxQueue
	st.stranded = res.Stranded
	for _, ph := range res.Phases {
		if ph.Kind != pipeline.KindRoute || ph.StepsPerSec <= 0 {
			continue
		}
		loop := time.Duration(float64(ph.Steps) / ph.StepsPerSec * float64(time.Second))
		st.routeSteps += ph.Steps
		st.hops += ph.Hops
		st.loop += loop
		st.busy += time.Duration(ph.WorkerUtil * float64(st.workers) * float64(loop))
	}
	return st
}

// phaseResult is a phase's outcomes after checking.
type phaseResult struct {
	latency []float64 // ms from due time to response, sent jobs
	hit     []float64 // the same, cache hits only
	late    []float64 // generator lateness, ms
	steps   float64   // mean simulated steps per job
	failed  int
	sims    []sample // engine figures of the jobs that simulated
	o       []outcome
}

// check decodes and checks every sent job of the phase, tallying each
// into rep, and summarizes the phase.
func (ph *phase) check(rep *report) phaseResult {
	var r phaseResult
	steps, sent := 0, 0
	for i, o := range ph.out {
		if !o.sent {
			continue
		}
		sent++
		var st service.JobStatus
		err := json.Unmarshal(o.body, &st)
		if err != nil {
			err = fmt.Errorf("service: HTTP %d, undecodable response %q: %v", o.code, truncate(o.body), err)
		} else {
			err = checkJob(o.code, st, ph.jobs[i].ref)
		}
		rep.tally(err)
		lat := float64(o.end.Sub(o.due)) / float64(time.Millisecond)
		r.latency = append(r.latency, lat)
		if err != nil {
			r.failed++
			continue
		}
		steps += st.Result.TotalSteps
		if st.CacheHit {
			r.hit = append(r.hit, lat)
		} else {
			r.sims = append(r.sims, sample{in: i, dur: o.end.Sub(o.due), st: jobStats(st.Result)})
		}
	}
	r.late = millis(ph.gen.late)
	if sent > 0 {
		r.steps = float64(steps) / float64(sent)
	}
	r.o = ph.out
	return r
}

func truncate(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "..."
	}
	return string(b)
}

// sustains reports whether a probe met the capacity criteria: no
// failures, p99 latency within the limit, no growing backlog, and a
// generator that kept to its schedule.
func (r phaseResult) sustains(g genStats, maxLate time.Duration) bool {
	if r.failed > 0 || g.aborted || len(r.latency) == 0 {
		return false
	}
	if quantile(r.latency, 0.99) > float64(p99Limit)/float64(time.Millisecond) {
		return false
	}
	if g.backlogEnd > g.backlogMid+max(4, len(r.latency)/100) {
		return false
	}
	return quantile(r.late, 0.99) <= float64(maxLate)/float64(time.Millisecond)
}

// errLateGenerator marks a run whose load generator fell behind its
// schedule: its latencies would blame the server for a stalled client.
var errLateGenerator = errors.New("service-mix: load generator ran late")

// runService runs the service-mix workload.
func runService(cfg config) (*report, error) {
	rep := &report{workload: "service-mix"}
	root := xmath.NewRNG(cfg.seed)
	warmStream, err := newJobStream(root.Split(1))
	if err != nil {
		return nil, err
	}
	warmJobs := func() ([]svcJob, error) { return warmStream.take(int(svcRate * warmShare * cfg.dur.Seconds())) }

	// Set-up: the service child's start, Open with its journal, and the
	// first job's response, several times; the last child is kept. As for
	// the simulator workloads, set-up is scaled by calibration samples
	// taken between the set-ups.
	setupCal := newCalibrator()
	var x *remote
	setups := make([]float64, cfg.setups)
	for i := range setups {
		if x != nil {
			if _, err := x.stop(); err != nil {
				return nil, err
			}
		}
		first, err := warmStream.take(1)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		x, err = startRemote(cfg.scratch)
		if err != nil {
			return nil, err
		}
		ph := x.runHTTP(first, 1, 0)
		setups[i] = time.Since(t0).Seconds()
		ph.check(rep)
		setupCal.sample()
	}
	defer func() {
		if x != nil {
			x.stop()
		}
	}()
	jobs, err := warmJobs()
	if err != nil {
		return nil, err
	}
	x.runHTTP(jobs, svcRate, 0).check(rep)

	stream, err := newJobStream(root.Split(0))
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceService(cfg, rep, x, stream, warmJobs)
	}

	jobs, err = stream.take(int(svcRate * fixedShare * cfg.dur.Seconds()))
	if err != nil {
		return nil, err
	}
	cal := newCalibrator()
	stopCal := cal.sampleEvery(calPeriod)
	ph := x.runHTTP(jobs, svcRate, 0)
	stopCal()
	fixed := ph.check(rep)
	// A generator that ran late measured a stalled client, not the server:
	// the run is invalid.
	lateP99 := quantile(fixed.late, 0.99)
	rep.info = append(rep.info, metric{name: "gen_late_ms_p99", unit: "ms", value: lateP99, n: len(fixed.late)})
	if lateP99 > float64(cfg.maxLate)/float64(time.Millisecond) {
		return rep, fmt.Errorf("%w: p99 %.3f ms behind schedule, limit %v", errLateGenerator, lateP99, cfg.maxLate)
	}

	// Capacity: bisect the offered rate between capLo and capHi in log
	// space; the highest rate that sustains is the answer.
	lo, hi := capLo, capHi
	probeDur := probeShare * cfg.dur.Seconds()
	for p := 0; p < capProbes; p++ {
		rate := math.Sqrt(lo * hi)
		n := max(int(rate*probeDur), 1)
		jobs, err := stream.take(n)
		if err != nil {
			return nil, err
		}
		// Give up on a probe once a quarter of its jobs queue behind the
		// connections: it has failed, and draining more only delays the
		// next probe.
		ph := x.runHTTP(jobs, rate, max(n/4, 8))
		r := ph.check(rep)
		ok := r.sustains(ph.gen, cfg.maxLate)
		label := fmt.Sprintf("probe%d@%.0f/s.", p+1, rate)
		rep.info = append(rep.info,
			metric{name: label + "p99_ms", unit: "ms", value: quantile(r.latency, 0.99), n: len(r.latency)},
			metric{name: label + "gen_late_ms_p99", unit: "ms", value: quantile(r.late, 0.99), n: len(r.late)},
			metric{name: label + "backlog_growth", unit: "count", value: float64(ph.gen.backlogEnd - ph.gen.backlogMid)},
			metric{name: label + "sustained", unit: "bool", value: map[bool]float64{false: 0, true: 1}[ok]},
		)
		if ok {
			lo = rate
		} else {
			hi = rate
		}
	}
	rss, err := x.stop()
	x = nil
	if err != nil {
		return nil, err
	}

	p50, setup := quantile(fixed.latency, 0.5), quantile(setups, 0.5)
	rep.e2e = []metric{
		{name: "op_ms_p50_norm", unit: "ms", value: cal.normalize(p50), n: len(fixed.latency)},
		{name: "sim_steps", unit: "steps", value: fixed.steps, n: len(fixed.latency)},
		{name: "setup_s", unit: "s", value: setupCal.normalize(setup), n: len(setups)},
		{name: "peak_rss_mb", unit: "MiB", value: rss},
	}
	rep.info = append(rep.info,
		metric{name: "job_ms_p50", unit: "ms", value: p50, n: len(fixed.latency)},
		metric{name: "setup_s.raw", unit: "s", value: setup, n: len(setups)},
		metric{name: "cal_ms_p50", unit: "ms", value: cal.median(), n: len(cal.ms)},
		metric{name: "job_ms_p99", unit: "ms", value: quantile(fixed.latency, 0.99), n: len(fixed.latency)},
		metric{name: "hit_ms_p50", unit: "ms", value: quantile(fixed.hit, 0.5), n: len(fixed.hit)},
		metric{name: "sustained_jobs_per_s", unit: "1/s", value: lo, n: capProbes},
	)
	return rep, nil
}

// traceService is the traced run of service-mix: the fixed-rate stream
// over HTTP untraced, then replayed in-process on fresh instances, once
// untraced and once traced, for the per-layer view.
func traceService(cfg config, rep *report, x *remote, stream *jobStream, warmJobs func() ([]svcJob, error)) (*report, error) {
	part := cfg.dur.Seconds() / 3
	jobs, err := stream.take(int(svcRate * part))
	if err != nil {
		return nil, err
	}
	viaHTTP := x.runHTTP(jobs, svcRate, 0).check(rep)

	plain, err := replay(cfg, rep, jobs, warmJobs, false)
	if err != nil {
		return nil, err
	}
	traced, err := replay(cfg, rep, jobs, warmJobs, true)
	if err != nil {
		return nil, err
	}
	// The three runs served the same jobs, so they must agree on every
	// simulated step.
	if viaHTTP.steps != plain.r.steps || plain.r.steps != traced.r.steps {
		rep.tally(fmt.Errorf("service: mean simulated steps %g over HTTP, %g and %g in-process, for the same jobs",
			viaHTTP.steps, plain.r.steps, traced.r.steps))
	}
	tr := newTracer()
	addSpans(tr, traced.r)
	m0, m1 := traced.before, traced.after

	jobsN := float64(len(traced.r.latency))
	leases := float64((m1.WarmLeases - m0.WarmLeases) + (m1.ColdBuilds - m0.ColdBuilds) + (m1.Repurposed - m0.Repurposed))
	layer := engineLayer(traced.r.sims)
	counts := make([]*simCounts, len(traced.r.sims))
	for i := range traced.r.sims {
		counts[i] = &traced.r.sims[i].st.simCounts
	}
	layer = append(layer,
		metric{name: "engine.allocs_per_op", unit: "count", value: float64(plain.mallocs) / float64(len(plain.r.latency))},
		metric{name: "engine.hops", unit: "count", value: meanOverInputs(counts, func(c *simCounts) float64 { return float64(c.hops) })},
		metric{name: "engine.max_queue", unit: "count", value: maxOverInputs(counts, func(c *simCounts) float64 { return float64(c.maxQueue) })},
		metric{name: "engine.stranded", unit: "count", value: meanOverInputs(counts, func(c *simCounts) float64 { return float64(c.stranded) })},
		metric{name: "service.cache_hit_ratio", unit: "ratio", value: float64(m1.CacheHits-m0.CacheHits) / jobsN},
		metric{name: "service.warm_lease_ratio", unit: "ratio", value: float64(m1.WarmLeases-m0.WarmLeases) / leases},
		metric{name: "service.repurposed", unit: "count", value: float64(m1.Repurposed - m0.Repurposed)},
		metric{name: "service.cold_builds", unit: "count", value: float64(m1.ColdBuilds - m0.ColdBuilds)},
		metric{name: "service.journal_records_per_job", unit: "count", value: float64(m1.Journal.Records-m0.Journal.Records) / jobsN},
		metric{name: "service.journal_fsyncs", unit: "count", value: float64(m1.Journal.Fsyncs - m0.Journal.Fsyncs)},
		metric{name: "service.rejected", unit: "count", value: float64(m1.JobsRejected - m0.JobsRejected)},
		metric{name: "service.queue_depth_mean", unit: "count", value: traced.depth},
		metric{name: "service.runners_busy_mean", unit: "count", value: traced.busy},
		metric{name: "trace_overhead_pct", unit: "%", value: 100 * (quantile(traced.r.latency, 0.5)/quantile(plain.r.latency, 0.5) - 1), n: len(traced.r.latency)},
	)
	rep.layer = fill(layerNames, layer)

	var decode, submit, wait, encode, sim []time.Duration
	for _, o := range traced.r.o {
		if o.finished.IsZero() {
			continue
		}
		decode = append(decode, o.decoded.Sub(o.took))
		submit = append(submit, o.submitted.Sub(o.decoded))
		wait = append(wait, o.finished.Sub(o.submitted))
		encode = append(encode, o.end.Sub(o.finished))
	}
	for _, s := range traced.r.sims {
		sim = append(sim, s.st.loop)
	}
	us := func(ds []time.Duration, q float64) float64 { return 1000 * quantile(millis(ds), q) }
	n := len(decode)
	httpP50, plainP50 := quantile(viaHTTP.latency, 0.5), quantile(plain.r.latency, 0.5)
	rep.info = append(rep.info,
		metric{name: "service.decode_us_p50", unit: "us", value: us(decode, 0.5), n: n},
		metric{name: "service.encode_us_p50", unit: "us", value: us(encode, 0.5), n: n},
		metric{name: "service.submit_us_p50", unit: "us", value: us(submit, 0.5), n: n},
		metric{name: "service.submit_us_p99", unit: "us", value: us(submit, 0.99), n: n},
		metric{name: "service.wait_ms_p50", unit: "ms", value: quantile(millis(wait), 0.5), n: n},
		metric{name: "service.wait_ms_p99", unit: "ms", value: quantile(millis(wait), 0.99), n: n},
		metric{name: "service.sim_ms_p50", unit: "ms", value: quantile(millis(sim), 0.5), n: len(sim)},
		metric{name: "job_ms_p50.http", unit: "ms", value: httpP50, n: len(viaHTTP.latency)},
		metric{name: "job_ms_p50.in_process", unit: "ms", value: plainP50, n: len(plain.r.latency)},
		// Not measured: the HTTP figure minus the in-process one.
		metric{name: "service.http_ms_p50.derived", unit: "ms", value: httpP50 - plainP50},
		metric{name: "sim_steps", unit: "steps", value: traced.r.steps, n: len(traced.r.latency)},
	)
	rep.info = append(rep.info, tr.selfMetrics(len(traced.r.latency))...)
	if err := tr.write(cfg.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.info = append(rep.info, metric{name: "spans", unit: "count", value: float64(len(tr.spans))})
	return rep, nil
}

// replayed is one in-process replay of a job stream.
type replayed struct {
	r             phaseResult
	before, after service.Metrics // counters around the replay
	depth, busy   float64         // mean queue depth and busy runners
	mallocs       uint64          // heap allocations during the replay
}

// replay offers jobs in-process to a fresh, warmed-up service instance
// at the fixed rate.
func replay(cfg config, rep *report, jobs []svcJob, warmJobs func() ([]svcJob, error), timed bool) (replayed, error) {
	var out replayed
	warm, err := warmJobs()
	if err != nil {
		return out, err
	}
	y, err := openLocal(cfg.scratch)
	if err != nil {
		return out, err
	}
	defer y.close()
	y.runInProcess(warm, svcRate, false).check(rep)
	out.before = y.svc.Metrics()
	stop := sampleMetrics(y.svc)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := y.runInProcess(jobs, svcRate, timed)
	runtime.ReadMemStats(&m1)
	out.depth, out.busy = stop()
	out.after = y.svc.Metrics()
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.r = ph.check(rep)
	return out, nil
}

// sampleMetrics samples the service's queue depth and busy runners every
// 10 ms until stop is called; stop waits for the sampler to end and
// returns the two means.
func sampleMetrics(svc *service.Service) (stop func() (depth, busy float64)) {
	done := make(chan struct{})
	means := make(chan [2]float64, 1)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var d, b, n float64
		for {
			select {
			case <-done:
				means <- [2]float64{d / max(n, 1), b / max(n, 1)}
				return
			case <-tick.C:
				m := svc.Metrics()
				d += float64(m.QueueDepth)
				b += float64(m.RunnersBusy)
				n++
			}
		}
	}()
	return func() (float64, float64) {
		close(done)
		m := <-means
		return m[0], m[1]
	}
}
