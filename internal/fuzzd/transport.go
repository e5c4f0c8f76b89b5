package fuzzd

import (
	"fmt"
	"time"

	"repro/internal/fuzz"
	"repro/internal/fuzzd/chaos"
)

// Lease is one grant of work: execute iterations [Lo, Hi) of the campaign
// against the frozen corpus snapshot, then report back. Gen is the grant's
// fencing token — the manager bumps it on every grant, and a result is
// accepted only if its Gen matches the chunk's current grant, so a worker
// that stalled past its deadline cannot overwrite work the manager already
// reassigned.
type Lease struct {
	Gen    int
	Lo, Hi int
	Corpus []*fuzz.Prog
}

// MsgKind classifies worker-to-manager messages.
type MsgKind int

// Message kinds.
const (
	MsgResult    MsgKind = iota // lease completed; Iters carries the results
	MsgHeartbeat                // lease still in progress; renew the deadline
	MsgDeath                    // worker died (contained panic); Cause says why
)

// IterResult is one iteration's outcome in transit: the program the worker
// derived for the iteration plus its self-contained ExecResult, everything
// the ledger needs to fold the iteration without re-deriving it.
type IterResult struct {
	Iter int
	Prog *fuzz.Prog
	Res  fuzz.ExecResult
}

// Msg is one worker-to-manager message.
type Msg struct {
	Worker int
	Kind   MsgKind
	Gen    int
	Iters  []IterResult // MsgResult only
	Cause  string       // MsgDeath only
}

// Worker is the manager's handle on one spawned worker.
type Worker interface {
	// Send hands the worker a lease. The manager only sends to workers it
	// believes idle, so implementations may assume at most one outstanding
	// lease.
	Send(l Lease)
	// Stop tells the worker to exit after its current lease, if any.
	Stop()
}

// Transport spawns workers. The in-process LocalTransport below is the only
// implementation today; the interface is the seam where OS-process or
// socket-connected workers slot in — the Lease/Msg protocol is already
// value-only (no shared memory beyond the read-only corpus snapshot), so a
// remote transport is a marshalling exercise, not a redesign.
type Transport interface {
	// Spawn starts worker id, delivering its messages to msgs. Spawn is
	// called from the manager loop; implementations must not block on msgs
	// capacity from inside Spawn itself.
	Spawn(id int, msgs chan<- Msg) (Worker, error)
}

// LocalTransport runs workers as in-process goroutines, each owning a
// fuzz.Executor (its own booted kernel from the shared build cache). It is
// also where chaos schedules take effect: faults are self-injected by the
// worker at lease start, exactly as a genuinely flaky remote worker would
// misbehave from the manager's point of view.
type LocalTransport struct {
	Opts  fuzz.Options // campaign options (already normalized by the manager)
	Chaos chaos.Func   // nil = no faults
	// Heartbeat is the interval between renewal messages while executing.
	Heartbeat time.Duration
	// StallFor is how long an ActStall worker goes dark before delivering
	// its (now stale or late) result. The manager sets it comfortably past
	// the lease deadline.
	StallFor time.Duration

	// golden, when Opts.Fork is set, is the lazily booted fork source:
	// every spawned worker — initial fleet and respawns alike — is a
	// copy-on-write fork of this one pristine executor, which never runs an
	// iteration itself and so stays parked at its snapshot point. Spawn is
	// only called from the (single-goroutine) manager loop, so lazy
	// initialization and forking need no locking; the forks themselves are
	// safe to run concurrently because shared frames are frozen.
	golden *fuzz.Executor
}

// newExecutor stands up one worker executor: a fresh boot, or — in fork
// mode — a copy-on-write fork of the golden executor.
func (t *LocalTransport) newExecutor() (*fuzz.Executor, error) {
	if t.Opts.Fork && t.golden != nil {
		return t.golden.Fork()
	}
	ex, err := fuzz.NewExecutor(t.Opts)
	if err != nil {
		return nil, err
	}
	if t.Opts.Fork {
		t.golden = ex
		return t.golden.Fork()
	}
	return ex, nil
}

// localWorker is one spawned goroutine worker.
type localWorker struct {
	leases chan Lease
	quit   chan struct{}
}

// Send implements Worker. The leases channel is buffered one deep and the
// manager only grants to idle workers, so this never blocks.
func (w *localWorker) Send(l Lease) { w.leases <- l }

// Stop implements Worker.
func (w *localWorker) Stop() { close(w.quit) }

// Spawn implements Transport: stand up an executor (boot, or a CoW fork of
// the golden one in fork mode), start the worker loop.
func (t *LocalTransport) Spawn(id int, msgs chan<- Msg) (Worker, error) {
	ex, err := t.newExecutor()
	if err != nil {
		return nil, fmt.Errorf("fuzzd: spawn worker %d: %w", id, err)
	}
	w := &localWorker{leases: make(chan Lease, 1), quit: make(chan struct{})}
	go t.run(id, ex, w, msgs)
	return w, nil
}

// run is the worker loop: wait for a lease, serve it, repeat. A panic while
// serving — real bug or chaos-injected — is contained in serve; the loop
// then exits, having already reported the death.
func (t *LocalTransport) run(id int, ex *fuzz.Executor, w *localWorker, msgs chan<- Msg) {
	nlease := 0 // per-worker lease ordinal, the chaos schedule's clock
	for {
		select {
		case <-w.quit:
			return
		case l := <-w.leases:
			if !t.serve(id, nlease, ex, l, msgs) {
				return
			}
			nlease++
		}
	}
}

// serve executes one lease and reports the result. It returns false when the
// worker died doing it: the deferred recover converts any panic — injected
// by a chaos schedule or raised by a genuine executor bug — into a MsgDeath,
// so a worker crash is an event the manager handles, never a torn campaign.
func (t *LocalTransport) serve(id, nlease int, ex *fuzz.Executor, l Lease, msgs chan<- Msg) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			msgs <- Msg{Worker: id, Kind: MsgDeath, Gen: l.Gen, Cause: fmt.Sprint(r)}
			ok = false
		}
	}()

	act := chaos.ActNone
	if t.Chaos != nil {
		act = t.Chaos(id, nlease)
	}
	switch act {
	case chaos.ActKill:
		panic(fmt.Sprintf("chaos: killed on lease %d", nlease))
	case chaos.ActStall:
		// Go dark: no heartbeats, deliver the result long after the manager
		// has expired the lease (and possibly regranted the chunk).
		time.Sleep(t.StallFor)
	}

	// Heartbeat on a timer, not at iteration boundaries: renewal must not
	// depend on how long one iteration takes (a slow machine is not a dead
	// worker). The ticker goroutine stops when the lease is served; a final
	// heartbeat racing past the result is fenced off harmlessly by Gen.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		tick := time.NewTicker(t.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				msgs <- Msg{Worker: id, Kind: MsgHeartbeat, Gen: l.Gen}
			}
		}
	}()

	iters := make([]IterResult, 0, l.Hi-l.Lo)
	for i := l.Lo; i < l.Hi; i++ {
		if act == chaos.ActDelay {
			// Run slow but stay alive: the manager should keep renewing the
			// lease rather than expiring it.
			time.Sleep(t.Heartbeat)
		}
		prog := fuzz.PickProg(t.Opts.Seed, i, l.Corpus, ex.Kaddrs())
		res, err := ex.Exec(prog, fuzz.InjSeed(t.Opts.Seed, i))
		if err != nil {
			// An executor that cannot run its kernel is as dead as a panicked
			// one — surface it through the same containment path.
			panic(fmt.Sprintf("exec iteration %d: %v", i, err))
		}
		iters = append(iters, IterResult{Iter: i, Prog: prog, Res: res})
	}
	msgs <- Msg{Worker: id, Kind: MsgResult, Gen: l.Gen, Iters: iters}
	return true
}
