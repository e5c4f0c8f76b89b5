package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/fuzz"
	"repro/internal/inject"
	"repro/internal/sfi"
)

// TestStatsSumOverWorkers runs a 4-worker campaign and checks that every
// -stats engine gauge is the sum of the per-kernel counters, not worker
// 0's alone.
func TestStatsSumOverWorkers(t *testing.T) {
	plan := inject.DefaultPlan(7)
	f, err := fuzz.New(fuzz.Options{
		Iters: 32, Seed: 7, Workers: 4, Plan: &plan,
		Config: core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	ks, err := f.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 4 {
		t.Fatalf("%d worker kernels, want 4", len(ks))
	}
	got := map[string]uint64{}
	for _, m := range statsRegistry(ks, false).Snapshot() {
		got[m.Name] = m.Value
	}
	want := map[string]uint64{}
	for _, k := range ks {
		dc, bs, tlb := k.CPU.DecodeCacheStats(), k.CPU.BlockStats(), k.CPU.AS.DataTLBStats()
		want["decode_cache.hits"] += dc.Hits
		want["decode_cache.misses"] += dc.Misses
		want["decode_cache.entries"] += dc.Entries
		want["block_engine.formed"] += bs.Formed
		want["block_engine.dispatches"] += bs.Dispatches
		want["block_engine.cold"] += bs.Cold
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
}
