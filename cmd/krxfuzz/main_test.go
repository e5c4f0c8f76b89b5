package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/fuzz"
	"repro/internal/inject"
	"repro/internal/sfi"
)

// defaultCampaign runs krxfuzz's default configuration (SFI+X, the default
// injection plan, coverage armed) and returns the finished fuzzer.
func defaultCampaign(t *testing.T, iters, workers int, fork bool) *fuzz.Fuzzer {
	t.Helper()
	plan := inject.DefaultPlan(7)
	f, err := fuzz.New(fuzz.Options{
		Iters: iters, Seed: 7, Workers: workers, Fork: fork, Plan: &plan,
		Config: core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return f
}

func snapshot(t *testing.T, f *fuzz.Fuzzer) map[string]uint64 {
	t.Helper()
	reg, err := statsRegistry(f, false)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, m := range reg.Snapshot() {
		got[m.Name] = m.Value
	}
	return got
}

// TestStatsSumOverWorkers runs a 4-worker campaign and checks that every
// -stats engine gauge is the sum of the per-kernel counters, not worker
// 0's alone — and that the sums say why no block ran: the coverage probe
// is armed from boot, so every instruction bypasses the block engine.
func TestStatsSumOverWorkers(t *testing.T) {
	f := defaultCampaign(t, 32, 4, false)
	ks, err := f.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 4 {
		t.Fatalf("%d worker kernels, want 4", len(ks))
	}
	got := snapshot(t, f)
	want := map[string]uint64{}
	for _, k := range ks {
		dc, bs, tlb := k.CPU.DecodeCacheStats(), k.CPU.BlockStats(), k.CPU.AS.DataTLBStats()
		want["decode_cache.hits"] += dc.Hits
		want["decode_cache.misses"] += dc.Misses
		want["decode_cache.entries"] += dc.Entries
		want["block_engine.formed"] += bs.Formed
		want["block_engine.dispatches"] += bs.Dispatches
		want["block_engine.step_probe"] += bs.StepProbe
		want["block_engine.step_priv"] += bs.StepPriv
		want["block_engine.step_limit"] += bs.StepLimit
		want["block_engine.step_no_block"] += bs.StepNoBlock
		want["dtlb.hits"] += tlb.Hits
		want["dtlb.misses"] += tlb.Misses
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want the per-kernel sum %d", name, got[name], w)
		}
	}
	if w0 := ks[0].CPU.DecodeCacheStats().Hits; got["decode_cache.hits"] <= w0 {
		t.Errorf("decode_cache.hits %d does not exceed worker 0's %d: workers 1-3 missing", got["decode_cache.hits"], w0)
	}
	if got["block_engine.dispatches"] != 0 || got["block_engine.step_probe"] == 0 {
		t.Errorf("a coverage-probed campaign must bypass every block for the probe: dispatches %d, step_probe %d",
			got["block_engine.dispatches"], got["block_engine.step_probe"])
	}
}

// TestStatsRetiredWorkInvariant: cpu.instrs and cpu.cycles count the work
// the whole campaign retired — every iteration and every minimization
// replay — so they are the same at any worker count and in fork mode, and
// far exceed one restored iteration.
func TestStatsRetiredWorkInvariant(t *testing.T) {
	base := snapshot(t, defaultCampaign(t, 48, 1, false))
	if base["cpu.instrs"] < 48 || base["cpu.cycles"] <= base["cpu.instrs"] {
		t.Fatalf("cpu.instrs %d / cpu.cycles %d do not describe a 48-iteration campaign",
			base["cpu.instrs"], base["cpu.cycles"])
	}
	for _, c := range []struct {
		name    string
		workers int
		fork    bool
	}{{"workers=4", 4, false}, {"fork", 4, true}} {
		got := snapshot(t, defaultCampaign(t, 48, c.workers, c.fork))
		for _, name := range []string{"cpu.instrs", "cpu.cycles"} {
			if got[name] != base[name] {
				t.Errorf("%s: %s = %d, want %d as at workers=1", c.name, name, got[name], base[name])
			}
		}
	}
}
