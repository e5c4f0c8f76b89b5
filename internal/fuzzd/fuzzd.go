// Package fuzzd is the fault-tolerant fuzzing service: a manager that owns
// the campaign ledger — frozen-corpus batches, the coverage map, the crash
// buckets — and a fleet of workers that lease fixed-size iteration ranges
// and report coverage deltas and crashes back.
//
// The service is built on one load-bearing claim: fault tolerance must not
// cost determinism. The in-process fuzz.Fuzzer already guarantees that a
// campaign report is a pure function of (seed, config, plan); fuzzd keeps
// that guarantee while workers die, stall past their lease deadlines, and
// get replaced, because every mechanism it adds is invisible to the ledger:
//
//   - Work is granted as leases over sub-ranges of the same fixed
//     fuzz.BatchSize batches the in-process scheduler uses, against the same
//     frozen corpus snapshots. What a lease executes is a pure function of
//     (seed, range, snapshot) — PickProg/InjSeed per iteration — so WHO runs
//     it, WHEN, and HOW MANY TIMES cannot show in the results.
//   - Each grant carries a generation number (a fencing token). A lease that
//     expires is reclaimed and regranted under a new generation; results
//     arriving under a superseded generation are dropped, so a stalled
//     worker reappearing late cannot double-fold a range.
//   - A range that exhausts its retry budget is not abandoned — it is
//     quarantined: the manager executes it inline on its own triage
//     executor. Dead-lettering bounds *which scheduler* runs the range,
//     never whether it runs, so the report stays complete.
//   - When the whole fleet is gone and the respawn budget is spent, the
//     manager degrades to executing every remaining range inline — a
//     zero-worker campaign still terminates with the canonical report.
//   - Batches complete in full before the ledger folds them, in canonical
//     iteration order, exactly as fuzz.Fuzzer merges its shards.
//
// Chaos schedules (internal/fuzzd/chaos) inject worker kills, stalls, and
// delays at lease boundaries; the determinism tests assert byte-identical
// reports across worker counts and schedules — the service's contract,
// continuously self-tested.
package fuzzd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fuzz"
	"repro/internal/fuzzd/chaos"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Options configures the service around a fuzzing campaign.
type Options struct {
	// Fuzz is the campaign being served. Fuzz.Workers is the fleet size.
	Fuzz fuzz.Options

	// LeaseIters is the number of iterations per lease (0 = 16). Must not
	// exceed fuzz.BatchSize: leases subdivide batches, never span them.
	LeaseIters int

	// LeaseTimeout is how long a lease may go without a heartbeat before the
	// manager reclaims it (0 = 1s).
	LeaseTimeout time.Duration

	// Heartbeat is the interval workers renew their lease at
	// (0 = LeaseTimeout/4).
	Heartbeat time.Duration

	// MaxRetries caps regrants of one lease range after its first grant
	// (0 = 3, negative = no retries). A range that fails 1+MaxRetries grants
	// is dead-lettered: the manager quarantines it and executes it inline on
	// its triage executor.
	MaxRetries int

	// Backoff is the base requeue delay after a lost lease, doubled per
	// failed grant and capped at LeaseTimeout (0 = LeaseTimeout/8).
	Backoff time.Duration

	// MaxRespawns caps replacement workers spawned after deaths
	// (0 = 2 x Fuzz.Workers, negative = no respawns).
	MaxRespawns int

	// Chaos, when non-nil, is the fault schedule the (local) transport
	// self-injects — the service's self-test hook.
	Chaos chaos.Func

	// Transport spawns workers (nil = in-process LocalTransport).
	Transport Transport

	// Registry receives the service counters (nil = a private registry,
	// reachable via Manager.Registry).
	Registry *obs.Registry

	// Tracer receives service-plane events: leases, expiries, deaths,
	// respawns, dead-letters (nil = a private tracer). Service events are
	// stamped with host microseconds since Manager start — they are
	// scheduling observations, deliberately kept off the deterministic
	// campaign trace.
	Tracer *obs.Tracer
}

// OptionsError is the typed validation error New returns for an
// out-of-range service option.
type OptionsError struct {
	Field  string
	Value  int
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("fuzzd: invalid Options.%s = %d: %s", e.Field, e.Value, e.Reason)
}

// Normalize validates the options and fills defaults (idempotent).
func (o *Options) Normalize() error {
	if err := o.Fuzz.Normalize(); err != nil {
		return err
	}
	switch {
	case o.LeaseIters < 0:
		return &OptionsError{Field: "LeaseIters", Value: o.LeaseIters, Reason: "must be >= 0 (0 = default 16)"}
	case o.LeaseIters > fuzz.BatchSize:
		return &OptionsError{Field: "LeaseIters", Value: o.LeaseIters,
			Reason: fmt.Sprintf("must be <= BatchSize (%d): leases subdivide batches", fuzz.BatchSize)}
	}
	if o.LeaseIters == 0 {
		o.LeaseIters = 16
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.LeaseTimeout / 4
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 3
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = o.LeaseTimeout / 8
	}
	switch {
	case o.MaxRespawns == 0:
		o.MaxRespawns = 2 * o.Fuzz.Workers
	case o.MaxRespawns < 0:
		o.MaxRespawns = 0
	}
	return nil
}

// chunk states.
const (
	chunkPending = iota // waiting for a grant (readyAt gates retries)
	chunkLeased         // granted; deadline gates expiry
	chunkDone           // results accepted (or executed inline)
)

// chunk is one leasable iteration range of the current batch.
type chunk struct {
	lo, hi   int
	state    int
	gen      int // fencing token of the latest grant (kept across expiry for late-accept)
	worker   int
	grants   int
	deadline time.Time // chunkLeased: expiry
	readyAt  time.Time // chunkPending: earliest regrant (retry backoff)
	results  []IterResult
}

// wstate is the manager's view of one worker.
type wstate struct {
	id     int
	h      Worker
	gen    int  // fencing token of its current lease, 0 = idle
	lost   bool // lease expired; ungrantable until it reports back in
	lostAt time.Time
	dead   bool
}

// Manager owns the campaign state and runs the lease loop.
type Manager struct {
	opts   Options
	triage *fuzz.Executor // manager-owned: minimization + quarantined ranges
	ledger *fuzz.Ledger
	reg    *obs.Registry
	tracer *obs.Tracer
	epoch  time.Time

	msgs     chan Msg
	workers  map[int]*wstate
	nextID   int
	leaseSeq int // global grant counter; each grant's gen is unique
	respawns int

	cGranted, cExpired, cRenewed, cRetried *obs.Counter
	cStale, cLate, cDeadletter, cInline    *obs.Counter
	cSpawned, cDeaths, cRespawns           *obs.Counter

	// batchHook, when set, runs after every merged batch with the count of
	// iterations folded so far — the test seam for cancelling at a
	// deterministic boundary (mirrors fuzz.Fuzzer's).
	batchHook func(done int)
}

// New validates opts, boots the manager's triage executor, and prepares the
// service. Workers are spawned by Run.
func New(opts Options) (*Manager, error) {
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	triage, err := fuzz.NewExecutor(opts.Fuzz)
	if err != nil {
		return nil, err
	}
	if opts.Transport == nil {
		opts.Transport = &LocalTransport{
			Opts:      opts.Fuzz,
			Chaos:     opts.Chaos,
			Heartbeat: opts.Heartbeat,
			StallFor:  3 * opts.LeaseTimeout,
		}
	}
	ledger := fuzz.NewLedger(opts.Fuzz, triage)
	// Warm start: with Options.Fuzz.Checkpoint set, the service resumes the
	// campaign from its stored batch-aligned checkpoint, exactly like the
	// in-process fuzzer.
	if _, err := ledger.LoadCheckpoint(); err != nil {
		return nil, err
	}
	m := &Manager{
		opts:   opts,
		triage: triage,
		ledger: ledger,
		reg:    opts.Registry,
		tracer: opts.Tracer,
		epoch:  time.Now(),
		// Sized so a full fleet's final results plus a burst of heartbeats
		// never block a worker against an inlining manager.
		msgs:    make(chan Msg, 64+8*opts.Fuzz.Workers),
		workers: make(map[int]*wstate),
	}
	if m.reg == nil {
		m.reg = obs.NewRegistry()
	}
	if m.tracer == nil {
		m.tracer = obs.NewTracer(0)
	}
	if m.tracer.Now == nil {
		m.tracer.Now = func() (uint64, uint64) {
			us := uint64(time.Since(m.epoch).Microseconds())
			return us, us
		}
	}
	m.cGranted = m.reg.Counter("fuzzd.leases.granted")
	m.cExpired = m.reg.Counter("fuzzd.leases.expired")
	m.cRenewed = m.reg.Counter("fuzzd.leases.renewed")
	m.cRetried = m.reg.Counter("fuzzd.leases.retried")
	m.cStale = m.reg.Counter("fuzzd.leases.stale_dropped")
	m.cLate = m.reg.Counter("fuzzd.leases.late_accepted")
	m.cDeadletter = m.reg.Counter("fuzzd.deadletter")
	m.cInline = m.reg.Counter("fuzzd.inline")
	m.cSpawned = m.reg.Counter("fuzzd.workers.spawned")
	m.cDeaths = m.reg.Counter("fuzzd.workers.deaths")
	m.cRespawns = m.reg.Counter("fuzzd.workers.respawns")
	// Fork-mode observability: the golden kernel does not exist until the
	// first worker spawns, so the gauges resolve it at read time (and read
	// zero before then).
	if lt, ok := m.opts.Transport.(*LocalTransport); ok && opts.Fuzz.Fork {
		obs.RegisterFork(m.reg, "fork", kernel.Forks, func() *mem.AddressSpace {
			if lt.golden == nil {
				return nil
			}
			return lt.golden.Kernel().Space.AS
		})
	}
	return m, nil
}

// Registry returns the service metrics registry.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Tracer returns the service-plane tracer (leases, expiries, deaths,
// respawns — host-clocked, separate from the campaign trace).
func (m *Manager) Tracer() *obs.Tracer { return m.tracer }

// Run serves the campaign and returns its report — byte-identical to
// fuzz.Fuzz on the same Options.Fuzz, whatever the fleet does. Cancellation
// is graceful and batch-aligned: the in-flight batch drains (in-flight
// leases are collected or reclaimed, never torn), completed batches are
// merged, and the report is finalized with Partial set.
func (m *Manager) Run(ctx context.Context) (*fuzz.Report, error) {
	for i := 0; i < m.opts.Fuzz.Workers; i++ {
		// A failed spawn thins the fleet rather than killing the campaign;
		// the degradation floor below guarantees progress regardless.
		m.spawn()
	}
	defer m.stopAll()
	total := m.opts.Fuzz.Iters
	// A checkpoint-restored ledger starts at its last completed batch.
	for lo := m.ledger.Done(); lo < total; lo += fuzz.BatchSize {
		if ctx.Err() != nil {
			break
		}
		hi := lo + fuzz.BatchSize
		if hi > total {
			hi = total
		}
		if err := m.runBatch(lo, hi); err != nil {
			return nil, err
		}
		if err := m.ledger.SaveCheckpoint(); err != nil {
			return nil, err
		}
		if m.batchHook != nil {
			m.batchHook(m.ledger.Done())
		}
	}
	return m.ledger.Finalize(m.ledger.Done() < total), nil
}

// runBatch drives iterations [lo, hi) to completion through the lease loop,
// then folds them into the ledger in canonical order.
func (m *Manager) runBatch(lo, hi int) error {
	corpus := m.ledger.Corpus()
	var chunks []*chunk
	for clo := lo; clo < hi; clo += m.opts.LeaseIters {
		chi := clo + m.opts.LeaseIters
		if chi > hi {
			chi = hi
		}
		chunks = append(chunks, &chunk{lo: clo, hi: chi, state: chunkPending})
	}

	for {
		now := time.Now()
		if err := m.expire(chunks, corpus, now); err != nil {
			return err
		}
		if err := m.grant(chunks, corpus, now); err != nil {
			return err
		}
		if countState(chunks, chunkDone) == len(chunks) {
			break
		}
		if !m.waitWorthwhile(chunks) {
			// Graceful-degradation floor: nothing is leased, nobody is left
			// to lease to, and the respawn budget is spent — the manager
			// becomes the last worker and finishes the batch inline.
			for _, c := range chunks {
				if c.state == chunkPending {
					m.cInline.Inc()
					if err := m.inline(c, corpus); err != nil {
						return err
					}
				}
			}
			continue
		}
		timer, timerC := m.nextWake(chunks, time.Now())
		var err error
		select {
		case msg := <-m.msgs:
			err = m.handle(msg, chunks, corpus)
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
		if err != nil {
			return err
		}
	}

	// Canonical merge: chunks are in iteration order, each result slice is
	// in iteration order, and every iteration was accepted exactly once.
	for _, c := range chunks {
		for _, ir := range c.results {
			m.ledger.Fold(ir.Iter, ir.Prog, ir.Res)
		}
	}
	return nil
}

// spawn starts one worker through the transport.
func (m *Manager) spawn() *wstate {
	id := m.nextID
	m.nextID++
	h, err := m.opts.Transport.Spawn(id, m.msgs)
	if err != nil {
		return nil
	}
	ws := &wstate{id: id, h: h}
	m.workers[id] = ws
	m.cSpawned.Inc()
	return ws
}

// stopAll tells every live worker to exit.
func (m *Manager) stopAll() {
	for _, ws := range m.workers {
		if !ws.dead {
			ws.h.Stop()
		}
	}
}

// patience is how long a lost worker may stay silent after its lease
// expired before the manager presumes it dead. It must comfortably exceed
// the local transport's stall window so a merely-stalled worker delivers its
// late result before being written off; presuming too early is still safe —
// a "dead" worker's eventual result is accepted or fenced by generation like
// any other — it just spends respawn budget sooner than necessary.
func (m *Manager) patience() time.Duration { return 4 * m.opts.LeaseTimeout }

// expire reclaims leased chunks whose deadline passed: the worker is marked
// lost (ungrantable until it reports back), the chunk goes back to the
// queue — or to quarantine if its retry budget is spent. Lost workers that
// stay silent past the patience window are presumed dead, so a worker that
// never comes back cannot stall the campaign forever.
func (m *Manager) expire(chunks []*chunk, corpus []*fuzz.Prog, now time.Time) error {
	for _, c := range chunks {
		if c.state != chunkLeased || now.Before(c.deadline) {
			continue
		}
		m.cExpired.Inc()
		m.trace(obs.EvLeaseExpire, fmt.Sprintf("worker-%d", c.worker), uint64(c.lo), uint64(c.gen))
		if ws := m.workers[c.worker]; ws != nil && ws.gen == c.gen {
			ws.gen = 0
			ws.lost = true
			ws.lostAt = now
		}
		if err := m.reclaim(c, corpus); err != nil {
			return err
		}
	}
	for _, ws := range m.workers {
		if ws.lost && !ws.dead && now.Sub(ws.lostAt) >= m.patience() {
			ws.dead = true
			m.cDeaths.Inc()
			m.trace(obs.EvWorkerDeath, fmt.Sprintf("worker-%d-presumed", ws.id), 0, 0)
		}
	}
	return nil
}

// reclaim requeues a lost chunk with exponential backoff, or dead-letters it
// once its grants exhaust the retry budget. The chunk keeps its last gen so
// a late result from the lost lease can still be accepted while it waits.
func (m *Manager) reclaim(c *chunk, corpus []*fuzz.Prog) error {
	if c.grants >= 1+m.opts.MaxRetries {
		m.cDeadletter.Inc()
		m.trace(obs.EvDeadLetter, "quarantine", uint64(c.lo), uint64(c.hi))
		m.cInline.Inc()
		return m.inline(c, corpus)
	}
	m.cRetried.Inc()
	backoff := m.opts.Backoff << (c.grants - 1)
	if backoff > m.opts.LeaseTimeout {
		backoff = m.opts.LeaseTimeout
	}
	c.state = chunkPending
	c.readyAt = time.Now().Add(backoff)
	return nil
}

// inline executes a chunk on the manager's own triage executor — the
// quarantine and degradation path. Same PickProg/InjSeed derivation, same
// corpus snapshot, so the results are indistinguishable from a worker's.
func (m *Manager) inline(c *chunk, corpus []*fuzz.Prog) error {
	c.results = c.results[:0]
	for i := c.lo; i < c.hi; i++ {
		prog := fuzz.PickProg(m.opts.Fuzz.Seed, i, corpus, m.triage.Kaddrs())
		res, err := m.triage.Exec(prog, fuzz.InjSeed(m.opts.Fuzz.Seed, i))
		if err != nil {
			return fmt.Errorf("fuzzd: inline iteration %d: %w", i, err)
		}
		c.results = append(c.results, IterResult{Iter: i, Prog: prog, Res: res})
	}
	c.state = chunkDone
	return nil
}

// grant hands ready pending chunks to idle workers. When the whole fleet is
// dead and budget remains, it respawns ahead of granting so the batch keeps
// moving without waiting for another death message.
func (m *Manager) grant(chunks []*chunk, corpus []*fuzz.Prog, now time.Time) error {
	for _, c := range chunks {
		if c.state != chunkPending || now.Before(c.readyAt) {
			continue
		}
		ws := m.idleWorker()
		if ws == nil && m.countLive() == 0 && m.respawns < m.opts.MaxRespawns {
			m.respawns++
			if ws = m.spawn(); ws != nil {
				m.cRespawns.Inc()
				m.trace(obs.EvRespawn, fmt.Sprintf("worker-%d", ws.id), 0, uint64(m.respawns))
			}
		}
		if ws == nil {
			return nil
		}
		m.leaseSeq++
		c.gen = m.leaseSeq
		c.state = chunkLeased
		c.worker = ws.id
		c.grants++
		c.deadline = now.Add(m.opts.LeaseTimeout)
		ws.gen = c.gen
		m.cGranted.Inc()
		m.trace(obs.EvLease, fmt.Sprintf("worker-%d", ws.id), uint64(c.lo), uint64(c.gen))
		ws.h.Send(Lease{Gen: c.gen, Lo: c.lo, Hi: c.hi, Corpus: corpus})
	}
	return nil
}

// idleWorker returns a grantable worker: alive, not lost, no lease.
func (m *Manager) idleWorker() *wstate {
	// Lowest id wins, for stable (though behaviorally irrelevant) grants.
	var best *wstate
	for _, ws := range m.workers {
		if ws.dead || ws.lost || ws.gen != 0 {
			continue
		}
		if best == nil || ws.id < best.id {
			best = ws
		}
	}
	return best
}

// countLive counts workers that are alive and not lost.
func (m *Manager) countLive() int {
	n := 0
	for _, ws := range m.workers {
		if !ws.dead && !ws.lost {
			n++
		}
	}
	return n
}

func countState(chunks []*chunk, state int) int {
	n := 0
	for _, c := range chunks {
		if c.state == state {
			n++
		}
	}
	return n
}

// waitWorthwhile reports whether blocking can make progress: an outstanding
// lease will complete or expire, a worker (possibly lost — it reports back
// eventually, dead or alive) may come up for work, or the respawn budget can
// buy a replacement. When all fail, only the inline floor remains.
func (m *Manager) waitWorthwhile(chunks []*chunk) bool {
	if countState(chunks, chunkLeased) > 0 {
		return true
	}
	for _, ws := range m.workers {
		if !ws.dead {
			return true
		}
	}
	return m.respawns < m.opts.MaxRespawns
}

// nextWake arms a timer for the earliest actionable instant: a lease
// deadline, a retry readyAt when an idle worker could take the grant, or a
// lost worker's presumed-death deadline. Returns a nil channel (blocks
// forever) when nothing is timed.
func (m *Manager) nextWake(chunks []*chunk, now time.Time) (*time.Timer, <-chan time.Time) {
	var at time.Time
	// A pending chunk is actionable at readyAt if a worker is idle — or if
	// the fleet is gone but the respawn budget could buy one (grant's
	// respawn-ahead case: the retry must not depend on a message arriving).
	grantable := m.idleWorker() != nil ||
		(m.countLive() == 0 && m.respawns < m.opts.MaxRespawns)
	for _, c := range chunks {
		var t time.Time
		switch {
		case c.state == chunkLeased:
			t = c.deadline
		case c.state == chunkPending && grantable:
			t = c.readyAt
		default:
			continue
		}
		if at.IsZero() || t.Before(at) {
			at = t
		}
	}
	for _, ws := range m.workers {
		if ws.lost && !ws.dead {
			if t := ws.lostAt.Add(m.patience()); at.IsZero() || t.Before(at) {
				at = t
			}
		}
	}
	if at.IsZero() {
		return nil, nil
	}
	d := at.Sub(now)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	timer := time.NewTimer(d)
	return timer, timer.C
}

// handle applies one worker message to the batch state.
func (m *Manager) handle(msg Msg, chunks []*chunk, corpus []*fuzz.Prog) error {
	ws := m.workers[msg.Worker]
	switch msg.Kind {
	case MsgHeartbeat:
		for _, c := range chunks {
			if c.state == chunkLeased && c.gen == msg.Gen {
				c.deadline = time.Now().Add(m.opts.LeaseTimeout)
				m.cRenewed.Inc()
				return nil
			}
		}
		// A heartbeat for a superseded lease: the worker is stalled-but-alive
		// on work we already reassigned. Ignore; its result will be fenced.

	case MsgResult:
		// Whatever the verdict on the payload, the sender has finished its
		// lease and is grantable again.
		if ws != nil {
			ws.gen = 0
			ws.lost = false
		}
		for _, c := range chunks {
			if c.gen != msg.Gen {
				continue
			}
			switch c.state {
			case chunkLeased:
				c.results = msg.Iters
				c.state = chunkDone
			case chunkPending:
				// The lease expired but the range was never regranted — the
				// late result is still the current generation's, and identical
				// to what any regrant would have produced. Accept it.
				m.cLate.Inc()
				c.results = msg.Iters
				c.state = chunkDone
			default:
				m.cStale.Inc()
			}
			return nil
		}
		// Generation superseded (or from a previous batch): fence it out.
		m.cStale.Inc()

	case MsgDeath:
		m.cDeaths.Inc()
		m.trace(obs.EvWorkerDeath, fmt.Sprintf("worker-%d", msg.Worker), 0, uint64(msg.Gen))
		if ws != nil {
			ws.dead = true
			ws.gen = 0
		}
		for _, c := range chunks {
			if c.state == chunkLeased && c.gen == msg.Gen {
				// The lease died with the worker; requeue or quarantine.
				if err := m.reclaim(c, corpus); err != nil {
					return err
				}
				break
			}
		}
		if m.respawns < m.opts.MaxRespawns {
			m.respawns++
			if nw := m.spawn(); nw != nil {
				m.cRespawns.Inc()
				m.trace(obs.EvRespawn, fmt.Sprintf("worker-%d", nw.id), 0, uint64(m.respawns))
			}
		}
	}
	return nil
}

// trace emits one service-plane event.
func (m *Manager) trace(kind obs.EventKind, name string, addr, arg uint64) {
	m.tracer.Emit(kind, name, addr, arg)
}
