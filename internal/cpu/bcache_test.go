package cpu

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestBlockSelfModAbort is the mid-block self-modification gate: a store
// inside a block overwrites a LATER instruction of the SAME block. The
// engine must abort at the store (frame generation moved), resync through
// the dispatch loop, and execute the overwritten instruction from its new
// bytes — exactly what per-instruction dispatch does.
func TestBlockSelfModAbort(t *testing.T) {
	// MOVri encodes [op][reg][imm64]: the victim's immediate low byte is at
	// victim+2. Program (one straight-line block until RET):
	//   mov rbx, 9
	//   mov rcx, <victim imm addr>
	//   store [rcx], bl          ; rewrites "mov rax, 1" into "mov rax, 9"
	//   mov rax, 1               ; victim
	//   ret
	prog := []isa.Instr{
		isa.MovRI(isa.RBX, 9),
		isa.MovRI(isa.RCX, 0), // patched below once offsets are known
		isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1),
		isa.MovRI(isa.RAX, 1),
		isa.Ret(),
	}
	// Compute the victim's immediate address from the encoded lengths.
	off := uint64(0)
	for _, in := range prog[:3] {
		b, err := in.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		off += uint64(len(b))
	}
	prog[1] = isa.MovRI(isa.RCX, int64(dcCodeVA+off+2))

	run := func(blocksOn bool) (uint64, BlockStats, *RunResult) {
		c := rawCPU(t, mem.PermRWX, prog...)
		c.SetBlockEngine(blocksOn)
		res := mustReturn(t, c, 100)
		return c.Reg(isa.RAX), c.BlockStats(), res
	}

	raxOn, bsOn, resOn := run(true)
	raxOff, _, resOff := run(false)
	if raxOff != 9 {
		t.Fatalf("single-step reference: rax = %d, want 9", raxOff)
	}
	if raxOn != raxOff {
		t.Fatalf("block engine executed stale code: rax = %d, want %d", raxOn, raxOff)
	}
	if bsOn.Aborts == 0 {
		t.Errorf("self-modifying block must abort: %+v", bsOn)
	}
	if resOn.Instrs != resOff.Instrs || resOn.Cycles != resOff.Cycles {
		t.Errorf("counters diverge: %+v vs %+v", resOn, resOff)
	}
}

// TestBlockLimitExact: the fast path must not overrun a Run limit smaller
// than the pending block — the dispatcher falls back to single-step and
// stops after exactly `limit` instructions.
func TestBlockLimitExact(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 1),
		isa.MovRI(isa.RBX, 2),
		isa.MovRI(isa.RCX, 3),
		isa.MovRI(isa.RDX, 4),
		isa.Ret(),
	)
	res := c.Run(2)
	if res.Reason != StopLimit || res.Instrs != 2 {
		t.Fatalf("limit run: %+v", res)
	}
	if c.Reg(isa.RBX) != 2 || c.Reg(isa.RCX) == 3 {
		t.Fatalf("limit stopped at the wrong instruction: rbx=%d rcx=%d", c.Reg(isa.RBX), c.Reg(isa.RCX))
	}
	// Resuming finishes the program with the same totals a single run has.
	res2 := c.Run(100)
	if res2.Reason != StopReturn || res.Instrs+res2.Instrs != 5 {
		t.Fatalf("resume: %+v after %+v", res2, res)
	}
}

// TestBlockStatsAndToggle pins the SetBlockEngine/BlockStats contract: on by
// default, dispatching through blocks; disabling drops live blocks and
// reverts to single-step with identical results; re-enabling re-forms.
func TestBlockStatsAndToggle(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 5),
		isa.AddRI(isa.RAX, 7),
		isa.Ret(),
	)
	if !c.BlockEngineEnabled() {
		t.Fatal("block engine must default on")
	}
	mustReturn(t, c, 100) // a single pass must dispatch every instruction
	s := c.BlockStats()
	if s.Formed == 0 || s.Dispatches == 0 || s.Instrs == 0 || s.Blocks == 0 {
		t.Fatalf("run must go through blocks: %+v", s)
	}
	if s.Instrs != c.Instrs {
		t.Fatalf("all %d instructions should dispatch via blocks, got %d", c.Instrs, s.Instrs)
	}

	c.SetBlockEngine(false)
	if c.BlockEngineEnabled() {
		t.Fatal("disable failed")
	}
	if got := c.BlockStats(); got.Blocks != 0 {
		t.Fatalf("disabling must drop live blocks: %+v", got)
	}
	rax := c.Reg(isa.RAX)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if c.Reg(isa.RAX) != rax {
		t.Fatalf("single-step run diverged: rax=%d want %d", c.Reg(isa.RAX), rax)
	}
	d := c.BlockStats().Dispatches

	c.SetBlockEngine(true)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if got := c.BlockStats(); got.Dispatches == d || got.Blocks == 0 {
		t.Fatalf("re-enabled engine must dispatch again: %+v", got)
	}

	// With the decode cache off the engine has nothing to run on, but the
	// cumulative counters live on the CPU and must survive the toggle; only
	// the live footprint goes to zero.
	cum := c.BlockStats()
	c.SetDecodeCache(false)
	if c.BlockEngineEnabled() {
		t.Fatal("no decode cache, no block engine")
	}
	got := c.BlockStats()
	if got.Blocks != 0 {
		t.Fatalf("no decode cache must report zero live blocks: %+v", got)
	}
	cum.Blocks = 0
	if got != cum {
		t.Fatalf("cumulative stats must survive SetDecodeCache(false): got %+v want %+v", got, cum)
	}
}

// blkCountProbe counts exec callbacks; a struct (not a func value) so
// RemoveProbe can find it by identity.
type blkCountProbe struct{ n int }

func (p *blkCountProbe) OnExec(rip uint64, in *isa.Instr, cycles uint64) { p.n++ }

// TestBlockProbeFallback: installing any exec probe must disarm the block
// fast path (probes observe per-instruction pre-state the block loop does
// not materialize); removing the last probe re-arms it.
func TestBlockProbeFallback(t *testing.T) {
	c := rawCPU(t, mem.PermX,
		isa.MovRI(isa.RAX, 5),
		isa.Ret(),
	)
	p := &blkCountProbe{}
	c.AddProbe(p)
	mustReturn(t, c, 100)
	if d := c.BlockStats().Dispatches; d != 0 {
		t.Fatalf("probed run must not dispatch blocks: %d", d)
	}
	if p.n != 2 {
		t.Fatalf("probe saw %d instructions, want 2", p.n)
	}
	if s := c.BlockStats().StepProbe; s != 2 {
		t.Fatalf("StepProbe = %d, want one per probed instruction (2)", s)
	}
	c.RemoveProbe(p)
	resetRaw(t, c)
	mustReturn(t, c, 100)
	if d := c.BlockStats().Dispatches; d == 0 {
		t.Fatal("unprobed run must dispatch blocks again")
	}
}

// FuzzBlockEquivalence is the block-engine bit-identity oracle, the probe-
// free sibling of FuzzDecodeCacheEquivalence (probes would disarm the fast
// path): random bytes execute as code on writable+executable pages — so
// programs do overwrite themselves, mid-block — and every architecturally
// visible outcome must match between block-dispatch and single-step.
func FuzzBlockEquivalence(f *testing.F) {
	f.Add([]byte{byte(isa.NOP), byte(isa.RET)}, uint64(1))
	f.Add(encodeProgF(isa.MovRI(isa.RAX, 5), isa.AddRI(isa.RAX, 7), isa.Ret()), uint64(2))
	// Self-modifying seed: store a RET over our own first instruction.
	f.Add(encodeProgF(
		isa.MovRI(isa.RBX, int64(isa.RET)),
		isa.MovRI(isa.RCX, dcCodeVA),
		isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1),
		isa.Nop(),
	), uint64(3))
	// Same-block self-modification: the store rewrites the instruction
	// right after it (the TestBlockSelfModAbort shape).
	f.Add(encodeProgF(
		isa.MovRI(isa.RBX, 9),
		isa.MovRI(isa.RCX, dcCodeVA+32),
		isa.StoreSz(isa.Mem(isa.RCX, 0), isa.RBX, 1),
		isa.MovRI(isa.RAX, 1),
		isa.Ret(),
	), uint64(4))

	f.Fuzz(func(t *testing.T, code []byte, seed uint64) {
		if len(code) > 2*mem.PageSize {
			code = code[:2*mem.PageSize]
		}
		type outcome struct {
			res       RunResult
			trap      Trap
			faultKind mem.FaultKind
			faultAddr uint64
			regs      [isa.NumGPR]uint64
			rip       uint64
			flags     uint64
			instrs    uint64
			cycles    uint64
			memory    []byte
		}
		run := func(cacheOn, blocksOn bool) outcome {
			as := mem.NewAddressSpace()
			for _, m := range []struct {
				va   uint64
				n    int
				perm mem.Perm
			}{
				{dcCodeVA, 2, mem.PermRWX}, // writable code: self-modification in play
				{dcDataVA, 1, mem.PermRW},
				{dcStackVA, 1, mem.PermRW},
			} {
				if _, err := as.Map(m.va, m.n, m.perm); err != nil {
					t.Fatal(err)
				}
			}
			if err := as.Poke(dcCodeVA, code); err != nil {
				t.Fatal(err)
			}
			c := New(as)
			c.SetDecodeCache(cacheOn)
			c.SetBlockEngine(blocksOn)
			c.Mode = Kernel
			c.RIP = dcCodeVA
			rng := rand.New(rand.NewSource(int64(seed)))
			bases := []uint64{dcCodeVA, dcDataVA, dcStackVA}
			for i := range c.Regs {
				c.Regs[i] = bases[rng.Intn(len(bases))] + uint64(rng.Intn(mem.PageSize))
			}
			c.Regs[isa.RSP] = dcStackVA + mem.PageSize - 64
			if f := as.Write(c.Regs[isa.RSP], StopMagic, 8); f != nil {
				t.Fatal(f)
			}
			res := c.Run(512)
			o := outcome{
				res: *res, regs: c.Regs, rip: c.RIP, flags: c.RFlags,
				instrs: c.Instrs, cycles: c.Cycles,
			}
			if res.Trap != nil {
				o.trap = *res.Trap
				o.trap.Fault = nil // pointer field: compared via the two fields below
				o.res.Trap = nil
				if f := res.Trap.Fault; f != nil {
					o.faultKind, o.faultAddr = f.Kind, f.Addr
				}
			}
			for _, r := range []struct {
				va uint64
				n  int
			}{{dcCodeVA, 2 * mem.PageSize}, {dcDataVA, mem.PageSize}, {dcStackVA, mem.PageSize}} {
				b, err := as.Peek(r.va, r.n)
				if err != nil {
					t.Fatal(err)
				}
				o.memory = append(o.memory, b...)
			}
			return o
		}

		// The reference is the fully uncached path (fetch+decode and a
		// freshly built flags-live thunk per instruction); against it:
		// cached single-step and blocks (with flag-dead fusion and cmp/jcc
		// tail fusion). All must be bit-identical.
		off := run(false, false)
		for _, m := range []struct {
			name          string
			cache, blocks bool
		}{
			{"cache-only", true, false},
			{"blocks", true, true},
		} {
			on := run(m.cache, m.blocks)
			if on.res != off.res || on.trap != off.trap ||
				on.faultKind != off.faultKind || on.faultAddr != off.faultAddr ||
				on.regs != off.regs || on.rip != off.rip || on.flags != off.flags ||
				on.instrs != off.instrs || on.cycles != off.cycles {
				t.Fatalf("%s vs uncached diverge:\n on: %+v trap=%+v rip=%#x flags=%#x\noff: %+v trap=%+v rip=%#x flags=%#x",
					m.name, on.res, on.trap, on.rip, on.flags, off.res, off.trap, off.rip, off.flags)
			}
			if !bytes.Equal(on.memory, off.memory) {
				t.Fatalf("%s vs uncached diverge in final memory", m.name)
			}
		}
	})
}
