package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/fuzz"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sfi"
)

// campaignOptions is what `krxfuzz -iters N -seed S` runs: SFI+X, the default
// injection plan, coverage armed, one worker, boot mode.
func campaignOptions(seed int64, iters int, budget uint64) fuzz.Options {
	cfg := core.Config{
		XOM: core.XOMSFI, SFILevel: sfi.O3,
		Diversify: true, RAProt: diversify.RAEncrypt,
		Seed: seed, WatchdogBudget: budget,
	}
	plan := inject.DefaultPlan(seed)
	return fuzz.Options{Iters: iters, Seed: seed, Config: cfg, Workers: 1, Plan: &plan}
}

// tuneLikeKrxfuzz sets the engine knobs exactly as krxfuzz does at its flag
// defaults, so the benchmark runs the command's path.
func tuneLikeKrxfuzz(k *kernel.Kernel) {
	k.CPU.SetBlockEngine(true)
	k.CPU.SetBlockCompile(true)
	k.CPU.SetBlockHotThreshold(0)
	k.CPU.SeedHotProfile(nil)
}

// campaignUnit runs p.campaigns campaigns of p.iters iterations each, every
// one from a cold build cache and with its own seed derived from p.seed.
// One campaign's cost hangs on rare heavy iterations (audits, long
// minimizations), so a unit of several campaigns varies less from seed to
// seed than one campaign does. An op is one iteration.
func campaignUnit(p params, tr *Tracer) (unit, error) {
	var u unit
	var reports strings.Builder
	for j := 0; j < p.campaigns; j++ {
		opts := campaignOptions(p.seed*int64(p.campaigns)+int64(j), p.iters, p.budget)
		run := campaignRun
		if tr != nil {
			run = campaignTraced
		}
		c, rep, err := run(opts, tr)
		if err != nil {
			return unit{}, err
		}
		u.setup += c.setup
		u.wall += c.wall
		u.ops += c.ops
		u.failed += c.failed
		u.errs = append(u.errs, c.errs...)
		u.counts.add(c.counts)
		reports.WriteString(rep)
	}
	u.out = reports.String()
	return u, nil
}

// campaignRun is krxfuzz's own drive: fuzz.New plus Fuzzer.RunContext.
func campaignRun(opts fuzz.Options, _ *Tracer) (unit, string, error) {
	forks := kernel.Forks()
	t0 := time.Now()
	cache := freshBuildCache()
	f, err := fuzz.New(opts)
	if err != nil {
		return unit{}, "", err
	}
	ks, err := f.Kernels()
	if err != nil {
		return unit{}, "", err
	}
	for _, k := range ks {
		tuneLikeKrxfuzz(k)
	}
	t1 := time.Now()
	rep, err := f.RunContext(context.Background())
	t2 := time.Now()
	u := unit{setup: t1.Sub(t0), wall: t2.Sub(t1), ops: opts.Iters}
	if err != nil {
		u.failed = opts.Iters
		u.errs = append(u.errs, fmt.Sprintf("campaign: %v", err))
		return u, "", nil
	}
	for _, k := range ks {
		u.counts.addKernel(k)
	}
	u.counts.addStore(cache, forks)
	return u, campaignCheck(&u, rep, opts.Iters), nil
}

// campaignCheck validates a finished campaign report and returns its text,
// which every unit must reproduce byte for byte.
func campaignCheck(u *unit, rep *fuzz.Report, iters int) string {
	if rep.Partial || rep.Iters != iters {
		u.failed = iters - rep.Iters
		u.errs = append(u.errs, fmt.Sprintf("campaign: ran %d of %d iterations (partial=%t)", rep.Iters, iters, rep.Partial))
	}
	return rep.String()
}

// campaignTraced drives one campaign exactly as RunContext does with one
// worker: per batch of fuzz.BatchSize iterations, every program is picked
// from the corpus frozen at the batch start and executed, then the batch is
// folded in iteration order. Options are normalized first, as fuzz.New does:
// NewLedger reads MaxMinimize as given, and 0 would skip minimization.
func campaignTraced(opts fuzz.Options, tr *Tracer) (unit, string, error) {
	if err := opts.Normalize(); err != nil {
		return unit{}, "", err
	}
	forks := kernel.Forks()
	t0 := time.Now()
	setup := tr.Begin("setup", -1)
	cache := freshBuildCache()
	builds, err := buildImages(tr, []core.Config{opts.Config})
	if err != nil {
		return unit{}, "", err
	}
	// NewExecutor is the boot: kernel.Boot(cfg, WithCache()), a cache hit
	// now, plus the boot snapshot every Exec restores.
	s := tr.BeginAlloc("kernel.boot", -1)
	w, err := fuzz.NewExecutor(opts)
	tr.EndAlloc(s)
	if err != nil {
		return unit{}, "", err
	}
	if err := checkBuilds(cache, builds); err != nil {
		return unit{}, "", err
	}
	k := w.Kernel()
	tuneLikeKrxfuzz(k)
	ledger := fuzz.NewLedger(opts, w)
	// A kernel event tracer counts the executions minimization performs
	// inside Fold: each one starts with a Restore event. Events do not touch
	// emulated state, and the report check below proves it.
	events := obs.NewTracer(1 << 16)
	events.Attach(k.CPU)
	k.Trace = events
	base := clockOf(k) // every Exec restores to the boot snapshot
	tr.End(setup)
	t1 := time.Now()

	u := unit{setup: t1.Sub(t0), ops: opts.Iters}
	progs := make([]*fuzz.Prog, fuzz.BatchSize)
	results := make([]fuzz.ExecResult, fuzz.BatchSize)
	for lo := 0; lo < opts.Iters; lo += fuzz.BatchSize {
		hi := min(lo+fuzz.BatchSize, opts.Iters)
		batch := tr.Begin("fuzz.batch", lo)
		corpus := ledger.Corpus()
		for i := lo; i < hi; i++ {
			s := tr.Begin("fuzz.progen", i)
			prog := fuzz.PickProg(opts.Seed, i, corpus, w.Kaddrs())
			tr.End(s)
			s = tr.Begin("fuzz.exec", i)
			res, err := w.Exec(prog, fuzz.InjSeed(opts.Seed, i))
			tr.End(s)
			if err != nil {
				return unit{}, "", fmt.Errorf("campaign iteration %d: %w", i, err)
			}
			if res.Faults > 0 || res.Bucket != "" {
				tr.Rename(s, "fuzz.exec.audited")
				u.counts[cAuditedIters]++
			} else {
				tr.Rename(s, "fuzz.exec.clean")
			}
			tr.SetInstrs(s, k.CPU.Instrs-base.Instrs)
			u.counts.addClock(clockOf(k).since(base))
			progs[i-lo], results[i-lo] = prog, res
		}
		for i := lo; i < hi; i++ {
			events.Reset()
			s := tr.Begin("fuzz.fold", i)
			ledger.Fold(i, progs[i-lo], results[i-lo])
			tr.End(s)
			execs, work, err := minimizeWork(events, base)
			if err != nil {
				return unit{}, "", fmt.Errorf("campaign fold %d: %w", i, err)
			}
			u.counts[cMinimizeExecs] += execs
			u.counts.addClock(work)
		}
		tr.End(batch)
	}
	s = tr.Begin("fuzz.finalize", -1)
	rep := ledger.Finalize(false)
	tr.End(s)
	u.wall = time.Since(t1)

	u.counts.addKernel(k)
	u.counts.addStore(cache, forks)
	return u, campaignCheck(&u, rep, opts.Iters), nil
}

// minimizeWork reads the kernel events of one Fold: every minimization
// execution begins with a Restore (stamped with the snapshot's counters)
// and ends with its last syscall exit or trap, so each Restore-delimited
// segment is one execution and its largest stamp is where it stopped.
func minimizeWork(t *obs.Tracer, base kernelClock) (execs uint64, work kernelClock, err error) {
	if t.Dropped() > 0 {
		return 0, work, fmt.Errorf("kernel event ring overflowed (%d dropped)", t.Dropped())
	}
	var last kernelClock
	open := false
	for _, e := range t.Events() {
		if e.Kind == obs.EvRestore {
			if open {
				work = work.plus(last.since(base))
			}
			execs++
			open, last = true, base
			continue
		}
		if e.Instrs > last.Instrs {
			last = kernelClock{e.Instrs, e.Cycles}
		}
	}
	if open {
		work = work.plus(last.since(base))
	}
	return execs, work, nil
}
