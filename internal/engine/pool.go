package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of worker goroutines that execute the range
// work of routing phases. A Pool replaces the per-step goroutine spawning
// of the naive step loop: workers are launched once and synchronize with
// the coordinator through a sense-reversing atomic barrier.
//
// Run publishes work by advancing an epoch counter (the barrier's
// "sense"); workers observe the flip with a bounded spin before falling
// back to a parked channel wait, and completion is a single atomic
// countdown the caller observes the same way. When phases arrive
// back-to-back — the step loop wakes the pool once or twice per step —
// the barrier crossings are pure atomic loads and stores, with no
// channel round-trip per step per worker (the cost that dominated the
// old wake/done channel barrier at high shard counts). When the pool
// goes idle between phases, spinners park on their wake channels and
// burn no CPU.
//
// A single Pool may be shared by any number of Net values and routing
// phases, as long as Run is never called concurrently (routing phases are
// sequential by construction, so sharing one pool across the phases of a
// multi-phase algorithm — or across algorithms — is the intended use).
// Create one with NewPool, attach it via Net.Pool, and release its
// goroutines with Close when done. A nil *Pool is valid everywhere a pool
// is accepted and means one worker: the caller's goroutine.
//
// The calling goroutine participates as worker 0, so a 1-worker pool
// performs no atomic operations and spawns no goroutines at all.
type Pool struct {
	workers int

	// fn is the body of the current Run. It is published to the workers
	// by the epoch advance (atomics establish the happens-before edge)
	// and cleared only after every worker has checked in, so the plain
	// field needs no lock.
	fn func(w int)

	epoch   atomic.Uint32 // advanced once per Run (and once by Close): the barrier sense
	pending atomic.Int32  // spawned workers that have not finished the current epoch
	closed  atomic.Bool

	// spin is the bounded-spin budget a waiter burns (yielding to the
	// scheduler each iteration) before parking. On a single-CPU machine
	// spinning only steals cycles from the goroutine being waited for,
	// so the budget collapses to zero there.
	spin int

	// Parked-waiter protocol (both directions of the barrier): a waiter
	// announces itself in its parked flag, re-checks the condition, and
	// only then blocks on its 1-buffered wake channel; the signaling side
	// updates the condition first and sends a token to every announced
	// waiter after. Sequential consistency of the atomics guarantees at
	// least one side sees the other, so tokens are never lost; a stale
	// token (waiter saved by its re-check while a token was in flight)
	// only causes one spurious wakeup, because woken waiters always
	// re-check the condition before proceeding.
	parked []atomic.Bool   // spawned worker w-1 has announced it will park
	wake   []chan struct{} // wake tokens for parked workers

	callerParked atomic.Bool
	callerWake   chan struct{}

	mu       sync.Mutex
	panicVal interface{}
}

// NewPool starts a pool with the given number of workers; 0 or negative
// means GOMAXPROCS. The pool holds workers-1 parked goroutines (the
// caller of Run acts as the remaining worker).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, callerWake: make(chan struct{}, 1)}
	if runtime.GOMAXPROCS(0) > 1 {
		p.spin = 128
	}
	p.parked = make([]atomic.Bool, workers-1)
	p.wake = make([]chan struct{}, workers-1)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(i + 1)
	}
	return p
}

// callerPool is the 1-worker pool Route uses when Net.Pool is nil. Its
// Run calls fn(0) directly, so any number of goroutines may share it,
// and it is never closed.
var callerPool = NewPool(1)

// Workers returns the pool's worker count (including the caller slot).
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(w) once for every worker index w in [0, Workers()) and
// returns after all of them complete. fn(0) runs on the calling
// goroutine. A panic in any worker is re-raised on the caller after the
// barrier (workers themselves survive and stay parked for the next Run).
// Run must not be called concurrently with itself or Close.
func (p *Pool) Run(fn func(w int)) {
	if p.workers == 1 {
		fn(0)
		return
	}
	if p.closed.Load() {
		panic("engine: Run on closed Pool")
	}
	p.fn = fn
	p.pending.Store(int32(p.workers - 1))
	p.epoch.Add(1)
	for i := range p.parked {
		if p.parked[i].Load() {
			select {
			case p.wake[i] <- struct{}{}:
			default:
			}
		}
	}
	// Participate as worker 0, but always wait out the barrier even if
	// our own share panics, so the pool stays consistent for the next Run.
	var callerPanic interface{}
	func() {
		defer func() { callerPanic = recover() }()
		fn(0)
	}()
	for spins := 0; p.pending.Load() != 0; {
		if spins < p.spin {
			spins++
			runtime.Gosched()
			continue
		}
		p.callerParked.Store(true)
		if p.pending.Load() != 0 {
			<-p.callerWake // advisory; the loop re-checks pending
		}
		p.callerParked.Store(false)
	}
	p.fn = nil
	if callerPanic != nil {
		panic(callerPanic)
	}
	p.mu.Lock()
	pv := p.panicVal
	p.panicVal = nil
	p.mu.Unlock()
	if pv != nil {
		panic(pv)
	}
}

// Close releases the pool's goroutines. The pool must be idle (no Run in
// flight). Close is idempotent; Run after Close panics. Closing a nil
// pool is a no-op.
func (p *Pool) Close() {
	if p == nil || p.closed.Load() {
		return
	}
	// Order matters: workers woken by the epoch advance read the closed
	// flag after observing the new epoch, so the flag must be set first.
	p.closed.Store(true)
	p.epoch.Add(1)
	for i := range p.wake {
		select {
		case p.wake[i] <- struct{}{}:
		default:
		}
	}
}

func (p *Pool) worker(w int) {
	me := w - 1
	var seen uint32
	for {
		// Wait for the next epoch: bounded spin, then park.
		for spins := 0; ; {
			if e := p.epoch.Load(); e != seen {
				seen = e
				break
			}
			if spins < p.spin {
				spins++
				runtime.Gosched()
				continue
			}
			p.parked[me].Store(true)
			if p.epoch.Load() == seen {
				<-p.wake[me] // advisory; the loop re-checks the epoch
			}
			p.parked[me].Store(false)
		}
		if p.closed.Load() {
			return
		}
		func() {
			// Record panics instead of crashing the process: engine panics
			// signal algorithm bugs and must be catchable by the Route
			// caller (Run re-raises them there).
			defer func() {
				if r := recover(); r != nil {
					p.mu.Lock()
					if p.panicVal == nil {
						p.panicVal = r
					}
					p.mu.Unlock()
				}
			}()
			p.fn(w)
		}()
		if p.pending.Add(-1) == 0 && p.callerParked.Load() {
			select {
			case p.callerWake <- struct{}{}:
			default:
			}
		}
	}
}
