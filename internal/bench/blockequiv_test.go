// Block-engine bit-identity enforcement at system scale: the superblock
// engine — thunk arrays with flag-dead and cmp/jcc fusion — must not change
// any architecturally visible outcome of the Table 1 suite, the paper's
// attack scenarios, or a fuzzing campaign — and the fuzz report must stay
// byte-identical across worker counts with the engine on. These runs are
// probe-free (probes disarm the block fast path), so the on-side genuinely
// executes through block dispatch; each test asserts so via BlockStats.
package bench

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/kernel"
)

// blockMode names one engine configuration: blocks is the default shipping
// configuration, off the single-step baseline.
type blockMode struct {
	name     string
	blocksOn bool
}

var blockModes = []blockMode{
	{"blocks", true},
	{"off", false},
}

func bootBlocks(t *testing.T, cfg core.Config, m blockMode) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(cfg, kernel.WithCache())
	if err != nil {
		t.Fatal(err)
	}
	k.CPU.SetBlockEngine(m.blocksOn)
	return k
}

// TestTable1SuiteBlockEquivalence: every micro-op under block dispatch must
// produce the identical cycle and instruction totals as single-step, on the
// unprotected and the fully protected columns.
func TestTable1SuiteBlockEquivalence(t *testing.T) {
	for _, cfg := range equivConfigs() {
		type outcome struct {
			cycles, instrs uint64
		}
		run := func(m blockMode) outcome {
			k := bootBlocks(t, cfg, m)
			instrs0 := k.CPU.Instrs
			cycles, err := RunTable1Suite(k)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name(), m.name, err)
			}
			bs := k.CPU.BlockStats()
			if m.blocksOn && (bs.Dispatches == 0 || bs.StepProbe != 0) {
				t.Fatalf("%s/%s: block engine never dispatched or saw a probe: %+v", cfg.Name(), m.name, bs)
			} else if !m.blocksOn && bs.Dispatches != 0 {
				t.Fatalf("%s/%s: disabled engine dispatched: %+v", cfg.Name(), m.name, bs)
			}
			if bs.Compiled != bs.Formed {
				t.Fatalf("%s/%s: %d of %d formed blocks lowered to thunks", cfg.Name(), m.name, bs.Compiled, bs.Formed)
			}
			return outcome{cycles: cycles, instrs: k.CPU.Instrs - instrs0}
		}
		base := run(blockModes[0])
		for _, m := range blockModes[1:] {
			if got := run(m); got != base {
				t.Errorf("%s: %s diverges from %s: %+v vs %+v",
					cfg.Name(), m.name, blockModes[0].name, got, base)
			}
		}
	}
}

// TestAttackScenariosBlockEquivalence: the paper's three attack scenarios —
// including JIT-ROP gadget harvesting, exactly the adversarial control flow
// and text-reading a block engine could corrupt — end identically in every
// engine mode.
func TestAttackScenariosBlockEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(cfg core.Config, m blockMode) (attack.Result, *kernel.Kernel)
	}{
		{"DirectROP", func(cfg core.Config, m blockMode) (attack.Result, *kernel.Kernel) {
			target := bootBlocks(t, cfg, m)
			ref := bootBlocks(t, cfg, m)
			return attack.DirectROP(target, ref), target
		}},
		{"JITROP", func(cfg core.Config, m blockMode) (attack.Result, *kernel.Kernel) {
			target := bootBlocks(t, cfg, m)
			return attack.JITROP(target), target
		}},
		{"IndirectJITROP", func(cfg core.Config, m blockMode) (attack.Result, *kernel.Kernel) {
			target := bootBlocks(t, cfg, m)
			return attack.IndirectJITROP(target), target
		}},
	}
	for _, cfg := range equivConfigs() {
		for _, sc := range scenarios {
			rBase, kBase := sc.run(cfg, blockModes[0])
			// On the unprotected column the attack genuinely executes its
			// payload; there the engine must have been in the loop. Protected
			// columns may fault before a single block dispatches.
			if bs := kBase.CPU.BlockStats(); cfg.Name() == core.Vanilla.Name() && bs.Dispatches == 0 {
				t.Errorf("%s/%s: block engine never dispatched on the target", cfg.Name(), sc.name)
			}
			for _, m := range blockModes[1:] {
				r, k := sc.run(cfg, m)
				if r != rBase {
					t.Errorf("%s/%s: %s result diverges from %s:\n%v\nvs\n%v",
						cfg.Name(), sc.name, m.name, blockModes[0].name, r, rBase)
				}
				if k.CPU.Instrs != kBase.CPU.Instrs || k.CPU.Cycles != kBase.CPU.Cycles {
					t.Errorf("%s/%s: %s counters diverge: instrs %d/%d cycles %d/%d",
						cfg.Name(), sc.name, m.name, k.CPU.Instrs, kBase.CPU.Instrs,
						k.CPU.Cycles, kBase.CPU.Cycles)
				}
			}
		}
	}
}

// TestFuzzReportBlockInvariance: campaign reports must be byte-identical
// across engine modes (blocks, off) AND across -workers 1 and 4 — the
// worker-count invariance the deterministic scheduler guarantees must
// survive block dispatch. The campaign runs without the coverage probe,
// which would otherwise keep every instruction off the block engine.
func TestFuzzReportBlockInvariance(t *testing.T) {
	run := func(workers int, m blockMode) string {
		f, err := fuzz.New(fuzz.Options{Iters: 96, Seed: 17, Config: core.Vanilla, Workers: workers, NoCoverage: true})
		if err != nil {
			t.Fatal(err)
		}
		ks, err := f.Kernels()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			k.CPU.SetBlockEngine(m.blocksOn)
		}
		rep, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		var dispatches uint64
		for _, k := range ks {
			dispatches += k.CPU.BlockStats().Dispatches
		}
		if m.blocksOn && dispatches == 0 {
			t.Fatalf("workers=%d mode=%s: campaign never dispatched a block", workers, m.name)
		}
		return rep.String()
	}
	base := run(1, blockModes[0])
	for _, workers := range []int{1, 4} {
		for _, m := range blockModes {
			if workers == 1 && m == blockModes[0] {
				continue
			}
			if got := run(workers, m); got != base {
				t.Errorf("workers=%d mode=%s: report diverges from workers=1 mode=%s",
					workers, m.name, blockModes[0].name)
			}
		}
	}
}
