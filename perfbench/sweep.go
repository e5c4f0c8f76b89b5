package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernel"
)

// withSeed returns the columns of a table — the vanilla baseline, then
// cfgs — with the layout seed of every config set to seed.
func withSeed(seed int64, cfgs []core.Config) []core.Config {
	out := append([]core.Config{core.Vanilla}, cfgs...)
	for i := range out {
		out[i].Seed = seed
	}
	return out
}

// opCycles is the emulated cycles of every (config, op): the total over the
// timed runs, as bench.RunTable1 averages them, and the warm-up run apart.
type opCycles struct {
	names  []string
	timed  [][]uint64 // [config][op]
	warmup [][]uint64
}

func (c *opCycles) String() string {
	var sb strings.Builder
	for ci := range c.timed {
		for oi, name := range c.names {
			fmt.Fprintf(&sb, "%d %s %d %d\n", ci, name, c.warmup[ci][oi], c.timed[ci][oi])
		}
	}
	return sb.String()
}

// sweepUnit is krxbench -table1 counted from boot over the vanilla baseline
// and bench.Table1Configs, run one config after another with one kernel
// live at a time. Set-up builds every image into a cold cache; the unit
// then boots each config from that cache (kernel.Boot with WithCache) and
// runs every bench.MicroOps op the way the table does: a clean fd table,
// the op's Setup, one warm-up run and p.reps timed runs. An op is one run.
func sweepUnit(p params, tr *Tracer) (unit, error) {
	u, _, err := runSweep(withSeed(p.seed, bench.Table1Configs()), p.reps, tr)
	return u, err
}

// runSweep runs the sweep over cfgs and also returns the cycles it measured.
func runSweep(cfgs []core.Config, reps int, tr *Tracer) (unit, *opCycles, error) {
	forks := kernel.Forks()
	t0 := time.Now()
	setup := tr.Begin("setup", -1)
	cache := freshBuildCache()
	builds, err := buildImages(tr, cfgs)
	tr.End(setup)
	if err != nil {
		return unit{}, nil, err
	}
	t1 := time.Now()

	var u unit
	cyc := &opCycles{}
	for _, op := range bench.MicroOps() {
		cyc.names = append(cyc.names, op.Name)
	}
	for ci, cfg := range cfgs {
		col := tr.Begin("sweep.config", ci)
		s := tr.BeginAlloc("kernel.boot", ci)
		k, err := kernel.Boot(cfg, kernel.WithCache())
		tr.EndAlloc(s)
		if err != nil {
			return unit{}, nil, fmt.Errorf("boot %s: %w", cfg.Name(), err)
		}
		ops := bench.MicroOps()
		timed := make([]uint64, len(ops))
		warm := make([]uint64, len(ops))
		for oi, op := range ops {
			if err := opSetup(k, op, tr); err != nil {
				u.ops += 1 + reps
				u.failed += 1 + reps
				u.errs = append(u.errs, fmt.Sprintf("%s (%s) setup: %v", op.Name, cfg.Name(), err))
				continue
			}
			for n := 0; n <= reps; n++ {
				c, err := runOp(k, "bench.op", oi, op.Run, tr)
				u.ops++
				if err != nil {
					u.failed++
					u.errs = append(u.errs, fmt.Sprintf("%s (%s): %v", op.Name, cfg.Name(), err))
					continue
				}
				if n == 0 {
					warm[oi] = c
				} else {
					timed[oi] += c
				}
			}
		}
		cyc.timed = append(cyc.timed, timed)
		cyc.warmup = append(cyc.warmup, warm)
		u.counts.addKernel(k)
		u.counts.addClock(clockOf(k))
		tr.End(col)
	}
	u.setup, u.wall = t1.Sub(t0), time.Since(t1)
	if err := checkBuilds(cache, builds); err != nil {
		return unit{}, nil, err
	}
	u.out = cyc.String()
	u.counts.addStore(cache, forks)
	return u, cyc, nil
}

// opSetup starts an op the way the Table 1 harness does: from a clean fd
// table (some ops leak descriptors by design), then the op's own Setup.
func opSetup(k *kernel.Kernel, op bench.MicroOp, tr *Tracer) error {
	s := tr.Begin("bench.setup", -1)
	defer tr.End(s)
	for fd := uint64(0); fd < 64; fd++ {
		k.Syscall(kernel.SysClose, fd)
	}
	if op.Setup != nil {
		return op.Setup(k)
	}
	return nil
}

// runOp runs one op or transaction in a span named name and returns the
// emulated cycles it reports.
func runOp(k *kernel.Kernel, name string, i int, run func(*kernel.Kernel) (uint64, error), tr *Tracer) (uint64, error) {
	before := k.CPU.Instrs
	s := tr.Begin(name, i)
	c, err := run(k)
	tr.End(s)
	tr.SetInstrs(s, k.CPU.Instrs-before)
	return c, err
}
