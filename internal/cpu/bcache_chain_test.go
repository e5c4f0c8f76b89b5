package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// jmpOver returns a raw rip-relative JMP skipping the given instructions
// (isa.Jmp takes a label and cannot Encode; raw Imm displacements can).
func jmpOver(t *testing.T, skip ...isa.Instr) isa.Instr {
	t.Helper()
	return isa.Instr{Op: isa.JMP, Imm: int64(len(encodeProg(t, skip...)))}
}

// TestBlockChainStraightLine drives both successor slots: a taken JMP over
// dead code (taken link), then a not-taken JCC (fallthrough link). The first
// pass resolves the links lazily; the second follows them from the cache
// with no severs, and every instruction still dispatches through blocks at
// single-step-identical results.
func TestBlockChainStraightLine(t *testing.T) {
	dead := isa.Nop()
	prog := []isa.Instr{
		// Block A: ends in a taken JMP over the dead NOP.
		isa.MovRI(isa.RAX, 5),
		jmpOver(t, dead),
		dead,
		// Block B: ADD leaves rax=12 (ZF clear), so the JCC falls through.
		isa.AddRI(isa.RAX, 7),
		{Op: isa.JCC, CC: isa.CondE, Imm: 0},
		// Block C.
		isa.MovRI(isa.RBX, 3),
		isa.Ret(),
	}

	ref := rawCPU(t, mem.PermX, prog...)
	ref.SetBlockEngine(false)
	refRes := mustReturn(t, ref, 100)

	c := rawCPU(t, mem.PermX, prog...)
	res1 := mustReturn(t, c, 100)
	s1 := c.BlockStats()
	if s1.Chained != 2 || s1.Severed != 0 || s1.Dispatches != 3 {
		t.Fatalf("first pass must chain A->B (taken) and B->C (fallthrough): %+v", s1)
	}
	resetRaw(t, c)
	res2 := mustReturn(t, c, 100)
	s2 := c.BlockStats()
	if s2.Chained != 4 || s2.Severed != 0 || s2.Formed != s1.Formed {
		t.Fatalf("second pass must follow cached links without re-forming: %+v", s2)
	}
	if s2.Instrs != c.Instrs {
		t.Fatalf("all %d instructions should dispatch via blocks, got %d", c.Instrs, s2.Instrs)
	}
	if c.Reg(isa.RAX) != ref.Reg(isa.RAX) || c.Reg(isa.RBX) != ref.Reg(isa.RBX) {
		t.Fatalf("chained run diverged: rax=%d rbx=%d want rax=%d rbx=%d",
			c.Reg(isa.RAX), c.Reg(isa.RBX), ref.Reg(isa.RAX), ref.Reg(isa.RBX))
	}
	for _, res := range []*RunResult{res1, res2} {
		if res.Instrs != refRes.Instrs || res.Cycles != refRes.Cycles {
			t.Fatalf("counters diverge: %+v vs reference %+v", res, refRes)
		}
	}
}

// TestBlockChainStaleSuccessor is the chain-invalidation gate: a chained
// successor's frame is overwritten between dispatches. The predecessor's
// page is untouched, so its block (and the cached link inside it) survives —
// following the link must fail the frame-generation check, sever, and
// re-resolve through the full lookup, executing the NEW bytes.
func TestBlockChainStaleSuccessor(t *testing.T) {
	const succVA = dcCodeVA + mem.PageSize
	c := rawCPU(t, mem.PermRWX,
		isa.MovRI(isa.RCX, succVA),
		isa.Instr{Op: isa.JMPR, Dst: isa.RCX},
	)
	install := func(imm int64) {
		t.Helper()
		if err := c.AS.Poke(succVA, encodeProg(t, isa.MovRI(isa.RAX, imm), isa.Ret())); err != nil {
			t.Fatal(err)
		}
	}

	install(1)
	mustReturn(t, c, 100)
	if got := c.Reg(isa.RAX); got != 1 {
		t.Fatalf("first pass: rax = %d, want 1", got)
	}
	s1 := c.BlockStats()
	if s1.Chained == 0 || s1.Severed != 0 {
		t.Fatalf("first pass must chain into the successor: %+v", s1)
	}

	install(42) // bumps only the successor frame's generation
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if got := c.Reg(isa.RAX); got != 42 {
		t.Fatalf("chain executed stale successor code: rax = %d, want 42", got)
	}
	s2 := c.BlockStats()
	if s2.Severed != 1 {
		t.Fatalf("stale link must sever exactly once: %+v", s2)
	}
	if s2.Formed != s1.Formed+1 {
		t.Fatalf("severed successor must re-form once: %+v after %+v", s2, s1)
	}
}

// TestBlockChainLimit: chaining must respect the Run instruction budget
// exactly — a chained successor larger than the remaining budget breaks the
// chain, and the dispatcher finishes by single-stepping to the precise
// limit, resumable with single-run-identical totals.
func TestBlockChainLimit(t *testing.T) {
	dead := isa.Nop()
	c := rawCPU(t, mem.PermX,
		// Block A: 2 instructions.
		isa.MovRI(isa.RAX, 1),
		jmpOver(t, dead),
		dead,
		// Block B: 3 instructions — larger than the post-A budget below.
		isa.MovRI(isa.RBX, 2),
		isa.MovRI(isa.RCX, 3),
		isa.Ret(),
	)
	res := c.Run(3)
	if res.Reason != StopLimit || res.Instrs != 3 {
		t.Fatalf("limit run: %+v", res)
	}
	if c.Reg(isa.RBX) != 2 || c.Reg(isa.RCX) == 3 {
		t.Fatalf("limit stopped at the wrong instruction: rbx=%d rcx=%d",
			c.Reg(isa.RBX), c.Reg(isa.RCX))
	}
	if s := c.BlockStats(); s.StepLimit == 0 {
		t.Fatalf("the limit bypass must be counted: %+v", s)
	}
	res2 := mustReturn(t, c, 100)
	if res.Instrs+res2.Instrs != 5 {
		t.Fatalf("resume: %+v after %+v", res2, res)
	}
}

// TestBlockStatsConsistency pins the satellite-audit semantics: the
// cumulative counters (everything but Blocks) are monotone and survive page
// flushes, SetBlockEngine toggles, and SetDecodeCache toggles; Blocks is a
// live recount that drops to zero whenever the formed blocks die (flush,
// disable) and comes back only by re-forming.
func TestBlockStatsConsistency(t *testing.T) {
	prog := []isa.Instr{
		isa.MovRI(isa.RAX, 5),
		isa.AddRI(isa.RAX, 7),
		isa.Ret(),
	}
	c := rawCPU(t, mem.PermRWX, prog...)

	cumulative := func(s BlockStats) BlockStats { s.Blocks = 0; return s }
	mono := func(step string, prev, cur BlockStats) {
		t.Helper()
		p, q := cumulative(prev), cumulative(cur)
		if q.Formed < p.Formed || q.Dispatches < p.Dispatches || q.Instrs < p.Instrs ||
			q.Aborts < p.Aborts || q.Chained < p.Chained || q.Severed < p.Severed ||
			q.StepLimit < p.StepLimit || q.StepNoBlock < p.StepNoBlock {
			t.Fatalf("%s: cumulative counters went backwards: %+v -> %+v", step, prev, cur)
		}
	}

	mustReturn(t, c, 100)
	s1 := c.BlockStats()
	if s1.Blocks == 0 || s1.Formed == 0 {
		t.Fatalf("warm run must form blocks: %+v", s1)
	}

	// A frame rewrite kills the formed blocks (live count) but no history.
	if err := c.AS.Poke(dcCodeVA, encodeProg(t, prog...)); err != nil {
		t.Fatal(err)
	}
	s2 := c.BlockStats()
	mono("poke", s1, s2)
	if s2.Blocks != 0 {
		t.Fatalf("stale blocks must not count as live: %+v", s2)
	}
	if cumulative(s2) != cumulative(s1) {
		t.Fatalf("a flush must not touch cumulative counters: %+v -> %+v", s1, s2)
	}

	// Re-running re-forms over the new bytes.
	resetRaw(t, c)
	mustReturn(t, c, 100)
	s3 := c.BlockStats()
	mono("re-form", s2, s3)
	if s3.Blocks == 0 || s3.Formed != s1.Formed+1 {
		t.Fatalf("rewritten page must re-form exactly once: %+v", s3)
	}

	// Engine toggle: live blocks drop, history survives, re-enable re-forms.
	c.SetBlockEngine(false)
	s4 := c.BlockStats()
	mono("disable", s3, s4)
	if s4.Blocks != 0 || cumulative(s4) != cumulative(s3) {
		t.Fatalf("disable must only drop live blocks: %+v", s4)
	}
	c.SetBlockEngine(true)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	s5 := c.BlockStats()
	mono("re-enable", s4, s5)
	if s5.Blocks == 0 || s5.Formed <= s4.Formed {
		t.Fatalf("re-enabled engine must re-form: %+v", s5)
	}

	// Cache toggle: same story.
	c.SetDecodeCache(false)
	s6 := c.BlockStats()
	mono("cache off", s5, s6)
	if s6.Blocks != 0 || cumulative(s6) != cumulative(s5) {
		t.Fatalf("cache off must only drop live blocks: %+v", s6)
	}
	c.SetDecodeCache(true)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	s7 := c.BlockStats()
	mono("cache on", s6, s7)
	if s7.Blocks == 0 {
		t.Fatalf("fresh cache must re-form on the next run: %+v", s7)
	}
}
