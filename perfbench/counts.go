package main

import (
	"repro/internal/core"
	"repro/internal/kernel"
)

// counter indexes counts.
type counter int

const (
	cInstrs counter = iota
	cCycles
	cBlockDispatches
	cBlockInstrs
	cBlockChained
	cBlockCompiled
	cBlockFused
	cBlockCold
	cBlockAborts
	cBlockSevered
	cDecodeHits
	cDecodeMisses
	cDecodeInvalidations
	cTLBHits
	cTLBMisses
	cForks
	cCowBreaks
	cStoreBuilds
	cStoreHits
	cMinimizeExecs
	cAuditedIters
	numCounters
)

// counterNames are the per-layer metric names of the counters.
var counterNames = [numCounters]string{
	"cpu.instrs", "cpu.cycles",
	"block_engine.dispatches", "block_engine.instrs", "block_engine.chained", "block_engine.compiled",
	"block_engine.fused", "block_engine.cold", "block_engine.aborts", "block_engine.severed",
	"decode_cache.hits", "decode_cache.misses", "decode_cache.invalidations",
	"dtlb.hits", "dtlb.misses",
	"fork.forks", "fork.cow_breaks",
	"store.builds", "store.hits",
	"fuzz.minimize_execs", "fuzz.audited_iters",
}

// counts are exact counters of one unit, read through the program's public
// stats and folded across every kernel the unit ran — not worker 0 only —
// so they describe the whole unit. Emulation is deterministic, so units of
// the same inputs read the same counts; a difference fails the run.
type counts [numCounters]uint64

func (c *counts) add(o counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// addKernel folds one kernel's cumulative engine, cache and copy-on-write
// counters. CPU.Instrs/Cycles are added by the caller (addClock): a
// campaign's Restore rewinds them every iteration, so only the caller knows
// what was retired.
func (c *counts) addKernel(k *kernel.Kernel) {
	b := k.CPU.BlockStats()
	d := k.CPU.DecodeCacheStats()
	t := k.CPU.AS.DataTLBStats()
	c.add(counts{
		cBlockDispatches: b.Dispatches, cBlockInstrs: b.Instrs, cBlockChained: b.Chained,
		cBlockCompiled: b.Compiled, cBlockFused: b.Fused, cBlockCold: b.Cold,
		cBlockAborts: b.Aborts, cBlockSevered: b.Severed,
		cDecodeHits: d.Hits, cDecodeMisses: d.Misses, cDecodeInvalidations: d.Invalidations,
		cTLBHits: t.Hits, cTLBMisses: t.Misses,
		cCowBreaks: k.CPU.AS.CowStats().Breaks,
	})
}

// addStore folds the unit's build-cache counters and the forks taken since
// forksBefore.
func (c *counts) addStore(cache *core.ImageCache, forksBefore uint64) {
	s := cache.Stats()
	c.add(counts{cStoreBuilds: s.Builds, cStoreHits: s.Hits, cForks: kernel.Forks() - forksBefore})
}

// addClock folds emulated work retired.
func (c *counts) addClock(k kernelClock) {
	c[cInstrs] += k.Instrs
	c[cCycles] += k.Cycles
}
