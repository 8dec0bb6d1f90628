package service

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestChaosStorm is the headline robustness test: 64 jobs under a 25%
// panic rate and a batch of deadline-busting slow jobs. Every job must
// reach a terminal state, the counters must account for all of them,
// poisoned runner slots must have been quarantined and rebuilt, and the
// service must still complete fresh work afterwards.
func TestChaosStorm(t *testing.T) {
	s := New(Options{
		Runners: 4, WorkersPerRunner: 1, QueueDepth: 64, CacheCapacity: -1,
		Chaos: ChaosOpts{PanicRate: 0.25, SlowRate: 0.25, Slow: 100 * time.Millisecond, Seed: 42},
	})
	defer s.Close()

	const storm = 64
	jobs := make([]*Job, 0, storm)
	for i := 0; i < storm; i++ {
		spec := JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: uint64(i + 1)}
		if i%4 == 0 {
			// A quarter of the storm carries a deadline far below the queue
			// wait: these must come back timed-out, not wedge a runner.
			spec.DeadlineMS = 1
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}

	deadline := time.After(60 * time.Second)
	for i, j := range jobs {
		select {
		case <-j.Done():
		case <-deadline:
			t.Fatalf("job %d (%s) not terminal after 60s: %+v", i, j.ID, j.Snapshot())
		}
		if st := j.Snapshot(); !terminalStatus(st.Status) {
			t.Fatalf("job %s Done() closed but status %s is not terminal", j.ID, st.Status)
		}
	}

	m := s.Metrics()
	if total := m.JobsCompleted + m.JobsFailed + m.JobsCancelled + m.JobsTimedOut; total != storm {
		t.Errorf("terminal jobs = %d (done=%d failed=%d cancelled=%d timed-out=%d), want %d",
			total, m.JobsCompleted, m.JobsFailed, m.JobsCancelled, m.JobsTimedOut, storm)
	}
	if m.JobsPanicked == 0 {
		t.Error("no injected panic was recovered (chaos roll produced none?)")
	}
	if m.SlotsRebuilt == 0 {
		t.Error("panics recovered but no runner slot was quarantined")
	}
	if m.JobsTimedOut == 0 {
		t.Error("no deadline job timed out")
	}
	if m.RunnersBusy != 0 {
		t.Errorf("runnersBusy = %d after the storm drained", m.RunnersBusy)
	}

	// A panicked job reports the failure, with the stack, to its caller.
	sawPanic := false
	for _, j := range jobs {
		st := j.Snapshot()
		if st.Status == StatusFailed && strings.Contains(st.Error, "panicked on runner slot") {
			sawPanic = true
			if !strings.Contains(st.Error, "goroutine") {
				t.Errorf("panic error lacks a stack: %q", st.Error)
			}
		}
	}
	if !sawPanic {
		t.Error("no job surfaced an injected panic")
	}

	// The service is still healthy: a clean job on a fresh (rebuilt) slot
	// completes.
	after, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, after); st.Status != StatusDone {
		t.Errorf("post-storm job: %s (%s)", st.Status, st.Error)
	}
}

// TestChaosRollDeterministic: the chaos decision is a pure function of
// (seed, job ID), so a storm reproduces run to run.
func TestChaosRollDeterministic(t *testing.T) {
	c := ChaosOpts{PanicRate: 0.25, SlowRate: 0.25, Seed: 7}
	panics, slows := 0, 0
	for i := 0; i < 1000; i++ {
		id := "j-" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		p1, s1 := c.roll(id)
		p2, s2 := c.roll(id)
		if p1 != p2 || s1 != s2 {
			t.Fatalf("roll(%q) not deterministic", id)
		}
		if p1 {
			panics++
		}
		if s1 {
			slows++
		}
	}
	if panics == 0 || slows == 0 {
		t.Errorf("1000 rolls at 25%%/25%%: panics=%d slows=%d — rates badly off", panics, slows)
	}
}

// TestCancelRunningJob is the cancellation-latency acceptance test: a
// DELETE-style Cancel on a long-running routing job (n=64, d=3 — over
// a quarter million processors) reaches terminal state in well under a
// second, because the engine yields at the next step boundary instead
// of finishing the route. The partial result the job keeps must not
// claim delivery.
func TestCancelRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("large mesh in -short mode")
	}
	for _, tc := range []struct {
		spec JobSpec
		// settle is how long the job runs before the cancel: long enough
		// to be inside the route (greedyroute's setup injects and
		// classes every packet before its one phase starts).
		settle time.Duration
	}{
		{JobSpec{Alg: AlgRoute, D: 3, N: 64, Seed: 1}, 100 * time.Millisecond},
		{JobSpec{Alg: AlgGreedyRoute, D: 3, N: 64, Perm: "reversal", Seed: 1}, 500 * time.Millisecond},
	} {
		t.Run(tc.spec.Alg, func(t *testing.T) {
			s := New(Options{Runners: 1, WorkersPerRunner: runtime.GOMAXPROCS(0)})
			defer s.Close()

			job, err := s.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for job.Snapshot().Status == StatusQueued {
				runtime.Gosched()
			}
			// Let it get properly into the route before pulling the plug.
			time.Sleep(tc.settle)

			start := time.Now()
			if _, ok := s.Cancel(job.ID); !ok {
				t.Fatal("Cancel: job not found")
			}
			select {
			case <-job.Done():
			case <-time.After(30 * time.Second):
				t.Fatal("cancelled job never went terminal")
			}
			latency := time.Since(start)

			st := job.Snapshot()
			if st.Status != StatusCancelled {
				t.Fatalf("status after cancel = %s (%s), want %s", st.Status, st.Error, StatusCancelled)
			}
			limit := time.Second
			if raceEnabled {
				limit = 5 * time.Second // the race detector slows each engine step
			}
			if latency > limit {
				t.Errorf("cancel latency %v exceeds %v", latency, limit)
			}
			if s.Metrics().JobsCancelled != 1 {
				t.Errorf("jobsCancelled = %d, want 1", s.Metrics().JobsCancelled)
			}
			// Under the race detector the setup alone may outlast settle.
			if tc.spec.Alg == AlgGreedyRoute && st.Result == nil && !raceEnabled {
				t.Fatal("cancelled greedyroute kept no partial result")
			}
			if st.Result != nil && st.Result.Delivered {
				t.Errorf("cancelled job's partial result claims delivered (totalSteps %d)", st.Result.TotalSteps)
			}
		})
	}
}

// TestCancelQueuedJob: cancelling a job that has not started is
// immediate and the worker later skips it.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1, QueueDepth: 4})
	gate := make(chan struct{})
	s.beforeRun = func(j *Job, slot *runnerSlot) { <-gate }

	running, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for running.Snapshot().Status == StatusQueued {
		runtime.Gosched()
	}
	queued, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(queued.ID); !ok {
		t.Fatal("Cancel: job not found")
	}
	select {
	case <-queued.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued job never went terminal")
	}
	if st := queued.Snapshot(); st.Status != StatusCancelled {
		t.Errorf("queued job after cancel: %s", st.Status)
	}

	close(gate)
	waitDone(t, running)
	s.Close()
	if sims := s.Metrics().Simulations; sims != 1 {
		t.Errorf("simulations = %d, want 1 (the cancelled job must not have run)", sims)
	}
}

// TestCancelTerminalIsNoop: cancelling a done job changes nothing.
func TestCancelTerminalIsNoop(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	defer s.Close()
	j, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if _, ok := s.Cancel(j.ID); !ok {
		t.Fatal("Cancel: job not found")
	}
	if st := j.Snapshot(); st.Status != StatusDone || st.Result == nil {
		t.Errorf("done job mutated by Cancel: %+v", st)
	}
	if got := s.Metrics().JobsCancelled; got != 0 {
		t.Errorf("jobsCancelled = %d after no-op cancel", got)
	}
}

// TestDeadlineTimesOutQueuedJob: a deadline shorter than the queue wait
// produces a timed-out job without it ever running.
func TestDeadlineTimesOutQueuedJob(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1, QueueDepth: 4})
	gate := make(chan struct{})
	s.beforeRun = func(j *Job, slot *runnerSlot) { <-gate }

	running, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for running.Snapshot().Status == StatusQueued {
		runtime.Gosched()
	}
	doomed, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: 2, DeadlineMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the deadline pass while queued
	close(gate)
	waitDone(t, running)
	select {
	case <-doomed.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("deadline job never went terminal")
	}
	if st := doomed.Snapshot(); st.Status != StatusTimedOut {
		t.Errorf("deadline job: status %s (%s), want %s", st.Status, st.Error, StatusTimedOut)
	}
	if got := s.Metrics().JobsTimedOut; got != 1 {
		t.Errorf("jobsTimedOut = %d, want 1", got)
	}
	s.Close()
}

// TestCloseUnderLoad: Close while a job is mid-run must drain, not
// panic (the old pool.close panicked on any busy slot).
func TestCloseUnderLoad(t *testing.T) {
	s := New(Options{Runners: 2, WorkersPerRunner: 1, QueueDepth: 8})
	gate := make(chan struct{})
	s.beforeRun = func(j *Job, slot *runnerSlot) { <-gate }

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobSpec{Alg: AlgSimple, D: 2, N: 8, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for jobs[0].Snapshot().Status == StatusQueued {
		runtime.Gosched()
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	time.Sleep(20 * time.Millisecond) // Close is now waiting on busy slots
	close(gate)

	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after the load drained")
	}
	for i, j := range jobs {
		if st := j.Snapshot(); st.Status != StatusDone {
			t.Errorf("job %d after close-under-load: %s (%s)", i, st.Status, st.Error)
		}
	}
}

// TestPoolCloseTimesOutOnStuckSlot: the drain wait is bounded — a slot
// that never comes back idle yields an error, not a hang or a panic.
func TestPoolCloseTimesOutOnStuckSlot(t *testing.T) {
	p := newRunnerPool(2, 1)
	stuck := p.acquire("mesh/2/8", JobSpec{Alg: AlgSimple, D: 2, N: 8}.Topo())
	start := time.Now()
	err := p.close(100 * time.Millisecond)
	if err == nil {
		t.Fatal("close with a busy slot reported success")
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("close blocked %v despite the 100ms drain bound", waited)
	}
	p.release(stuck) // return it so the goroutine accounting stays clean
}

// TestQuarantineRebuildsSlot: a quarantined slot loses its warm state
// and the next lease builds it cold.
func TestQuarantineRebuildsSlot(t *testing.T) {
	p := newRunnerPool(1, 1)
	tp := JobSpec{Alg: AlgSimple, D: 2, N: 8}.Topo()
	s1 := p.acquire("mesh/2/8", tp)
	p.quarantine(s1)
	s2 := p.acquire("mesh/2/8", tp)
	if s2.runner == nil || s2.pool == nil {
		t.Fatal("post-quarantine lease returned an unbuilt slot")
	}
	p.release(s2)
	_, _, warm, cold, _, rebuilt := p.stats()
	if rebuilt != 1 {
		t.Errorf("rebuilt = %d, want 1", rebuilt)
	}
	if cold != 2 || warm != 0 {
		t.Errorf("cold=%d warm=%d after quarantine, want 2 cold (no warm reuse of poisoned state)", cold, warm)
	}
	if err := p.close(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitAfterCloseDraining: chaos aside, the draining error path
// still holds with the new admission plumbing.
func TestSubmitAfterCloseDraining(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	s.Close()
	if _, err := s.SubmitWith(JobSpec{Alg: AlgSimple, D: 2, N: 8}, SubmitOpts{Tenant: "t", Priority: PriorityHigh}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after Close: %v, want ErrDraining", err)
	}
}
