package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernel"
)

// steadyUnit runs long syscall loops on one booted kernel per Table 2
// column (vanilla first), one column at a time. Set-up is the column's
// image build into a cold cache, then its boot from that cache. Each of
// p.passes passes runs every bench.MicroOps op p.reps times (after a clean
// fd table and the op's Setup) and every bench.Workloads transaction p.reps
// times; the first pass is where blocks form and compile. An op is one op
// run or transaction.
func steadyUnit(p params, tr *Tracer) (unit, error) {
	cfgs := withSeed(p.seed, bench.Table2Configs())
	forks := kernel.Forks()
	var u unit
	cache := freshBuildCache()
	var sums [][]uint64 // [config][op then txn]: emulated cycles over the unit
	for ci, cfg := range cfgs {
		t0 := time.Now()
		setup := tr.Begin("setup", ci)
		builds, err := buildImages(tr, []core.Config{cfg})
		if err != nil {
			return unit{}, err
		}
		s := tr.BeginAlloc("kernel.boot", ci)
		k, err := kernel.Boot(cfg, kernel.WithCache())
		tr.EndAlloc(s)
		tr.End(setup)
		if err != nil {
			return unit{}, fmt.Errorf("boot %s: %w", cfg.Name(), err)
		}
		if err := checkBuilds(cache, builds); err != nil {
			return unit{}, err
		}
		t1 := time.Now()
		ops, wls := bench.MicroOps(), bench.Workloads()
		sum := make([]uint64, len(ops)+len(wls))
		for pass := 0; pass < p.passes; pass++ {
			name := "bench.pass"
			if pass == 0 {
				name = "bench.warm"
			}
			ps := tr.Begin(name, pass)
			for oi, op := range ops {
				if err := opSetup(k, op, tr); err != nil {
					u.ops += p.reps
					u.failed += p.reps
					u.errs = append(u.errs, fmt.Sprintf("%s (%s) setup: %v", op.Name, cfg.Name(), err))
					continue
				}
				for n := 0; n < p.reps; n++ {
					c, err := runOp(k, "bench.op", oi, op.Run, tr)
					u.ops++
					if err != nil {
						u.failed++
						u.errs = append(u.errs, fmt.Sprintf("%s (%s): %v", op.Name, cfg.Name(), err))
					}
					sum[oi] += c
				}
			}
			for wi, wl := range wls {
				if err := opSetup(k, bench.MicroOp{}, tr); err != nil {
					return unit{}, err
				}
				for n := 0; n < p.reps; n++ {
					c, err := runOp(k, "bench.txn", wi, wl.Txn, tr)
					u.ops++
					if err != nil {
						u.failed++
						u.errs = append(u.errs, fmt.Sprintf("%s (%s): %v", wl.Name, cfg.Name(), err))
					}
					sum[len(ops)+wi] += c
				}
			}
			tr.End(ps)
		}
		u.setup += t1.Sub(t0)
		u.wall += time.Since(t1)
		sums = append(sums, sum)
		u.counts.addKernel(k)
		u.counts.addClock(clockOf(k))
	}
	u.out = fmt.Sprint(sums)
	u.counts.addStore(cache, forks)
	return u, nil
}
