package cpu

import (
	"math/bits"

	"repro/internal/isa"
)

// Opcode semantics: per-opcode thunks.
//
// compileEnt is the one place where the meaning of every KX64 opcode is
// written down. It turns a decoded instruction at a known address into a
// specialized closure — a thunk — with everything invariant for that
// instruction resolved once: opcode dispatch, operand field loads,
// effective-address shape, access size, and the successor address. Every
// executor calls thunks:
//
//   - the decode cache (dcache.go) builds each entry's thunk when it decodes
//     the entry, and Step calls it;
//   - the uncached path (stepSlow) decodes, builds a thunk for the one
//     instruction, and calls it;
//   - superblocks (bcache.go) are arrays of their entries' thunks, except
//     where compileBlock swaps in a fused form.
//
// Three families of specialization happen here:
//
//   - Operand capture. A thunk closes over the decoded operands as Go
//     locals: register indices, sign-extended immediates, the access size,
//     and — because an instruction's address is fixed once decoded — the
//     CONSTANT successor address `next` and any %rip-relative or absolute
//     effective address, folded to a single uint64. Branch targets
//     (JMP/JCC/CALL rel32) fold the same way.
//
//   - Effective-address folding. compileEA flattens every operand shape
//     (constant, base+disp, index*scale+disp, base+index*scale+disp) into
//     one branchless three-term expression (eaCap) instead of re-testing
//     HasBase/HasIndex/RIPRel per execution.
//
//   - Flag-dead fusion. compileBlock runs a backward liveness pass over a
//     block: an arithmetic instruction whose CF/OF/SF/ZF/PF results are
//     provably overwritten before ANY observable point gets its compileDead
//     variant — a bare register update (or, for CMP/TEST, a pure no-op)
//     with no flagsAdd/flagsSub/setSZP/parity work at all.
//
// Soundness of the fusion rests on a conservative definition of "observable
// point". The architectural %rflags must be bit-exact whenever anything can
// legally look at it:
//
//   - a flag READER executes (JCC, PUSHFQ, SYSCALL's %r11 spill, INC/DEC's
//     CF preservation, REPE CMPS/SCAS) — dcFR entries;
//   - an instruction that can TRAP executes (the trap handler and the
//     post-trap stop path both see %rflags; a trapping instruction may fault
//     BEFORE writing its own flags, so it cannot count as an overwriter
//     either) — dcTrap entries;
//   - the block EXITS (fallthrough, terminator, limit stop: the dispatcher,
//     a chained successor, a probe-armed re-entry, or the caller may all
//     read flags next) — liveness starts pessimistic at the block tail;
//   - the block ABORTS after a self-modifying store (the remaining entries
//     are stale; their liveness promises are void) — every dcStore entry is
//     treated as a block exit for the instruction it follows.
//
// Only an entry followed — with no such point in between — by an
// instruction that unconditionally overwrites ALL arithmetic flags and
// cannot trap (dcFW: the reg/imm ALU, shift, NEG, IMUL, CMP, TEST forms)
// may be fused. Everything the pass is unsure about stays live. Fused
// thunks exist only inside blocks, and the probe-armed path never runs
// blocks (Run falls back to Step), so per-instruction observers always see
// the flags-live thunks.
//
// Thunks capture NO *CPU and no page state — only immutable decoded
// operands — so decode-cache entries and formed blocks are shared freely
// across COW forks (fork.go) and are invalidated by exactly the machinery
// that already drops the entries and blocks that own them.
//
// The oracle for these semantics is the recorded golden corpus
// (golden_test.go): outcomes captured from the interpreter switch these
// thunks replaced, replayed under every engine configuration.

// thunk executes one instruction against c. On completion it sets c.RIP to
// the successor; on a trap it leaves c.RIP at the instruction. Instrs and
// the base cycle cost are charged by the caller (Step per instruction, the
// block loop per run from cthunk.cyc); a thunk adds only dynamic cycles
// (REP string elements).
type thunk func(c *CPU) (StopReason, *Trap)

// cthunk is one block entry: the thunk, the cumulative base cycle cost and
// instruction count of the block through this entry (so the dispatch loop
// can account a run ending here with one addition each — and so a
// tail-fused entry, which retires TWO instructions, charges both), and the
// decode flags the loop needs (dcStore for the self-modification abort
// check). Kept small so the dispatch loop walks a dense array.
type cthunk struct {
	fn    thunk
	cyc   uint64
	ni    uint32
	flags uint8
}

// compileBlock lowers the entries of a block starting at virtual address va
// to its thunk array, and returns the number of entries whose flag
// computation the liveness pass elided. Entries keep their own
// (flags-live) thunks except where a fused form replaces them, so only
// fused entries allocate.
//
// The liveness pass walks backwards. dead == true means: the arithmetic
// flags as they stand RIGHT AFTER the current entry are provably
// overwritten before any observable point, so the entry need not compute
// them. See the comment at the top of this file for what counts as
// observable.
func compileBlock(ents []*dcEntry, va uint64) (comp []cthunk, fused uint64) {
	comp = make([]cthunk, len(ents))
	var cyc uint64
	for i, e := range ents {
		va += uint64(e.ilen)
		cyc += e.cost
		comp[i] = cthunk{fn: e.fn, cyc: cyc, ni: uint32(i + 1), flags: e.flags}
	}
	end := va // the block's fallthrough address
	next := end
	dead := false // block exit: flags live
	for i := len(ents) - 1; i >= 0; i-- {
		e := ents[i]
		// A store can abort the block right after this entry (self-
		// modification resync): the position after it is an exit, whatever
		// the (possibly stale) rest of the block promised.
		if dead && e.flags&dcStore == 0 {
			if fn := compileDead(&e.in, next); fn != nil {
				comp[i].fn = fn
				fused++
			}
		}
		switch {
		case e.flags&(dcFR|dcTrap) != 0:
			// Reads flags, or may trap before (fully) writing them: every
			// earlier flag result must be architectural here.
			dead = false
		case e.flags&dcFW != 0:
			// Unconditionally overwrites all arithmetic flags, trap-free:
			// earlier results die here.
			dead = true
		}
		next -= uint64(e.ilen)
	}
	// Tail fusion: a trap-free register compare/arith feeding the block's
	// terminating JCC collapses into one thunk, so the hottest two-entry
	// sequence in loop code (cmp/test/dec ; jcc) pays one dispatch round
	// instead of two. The combined thunk still computes the architectural
	// flags first and branches on them — bit-identical, just one call. The
	// fused entry's cumulative cyc/ni are the terminator's, so accounting
	// charges both instructions.
	if n := len(ents); n >= 2 && ents[n-1].in.Op == isa.JCC {
		if fn := compileCmpJcc(&ents[n-2].in, &ents[n-1].in, end); fn != nil {
			comp[n-2] = cthunk{fn: fn, cyc: comp[n-1].cyc, ni: comp[n-1].ni, flags: ents[n-2].flags}
			comp = comp[:n-1]
		}
	}
	return comp, fused
}

// compileCmpJcc fuses a trap-free register-form flag producer with the
// block-terminating conditional branch that consumes it. jnext is the
// branch's successor (fallthrough) address. Returns nil for producers that
// can trap (memory forms) or have no fused constructor — the pair then
// dispatches as two ordinary entries.
func compileCmpJcc(p, j *isa.Instr, jnext uint64) thunk {
	d, s := p.Dst, p.Src
	imm := uint64(p.Imm)
	cc := j.CC
	target := jnext + uint64(j.Imm)
	branch := func(c *CPU) {
		if cc.Eval(c.RFlags) {
			c.RIP = target
		} else {
			c.RIP = jnext
		}
	}
	switch p.Op {
	case isa.CMPri:
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			c.flagsSub(a, imm, a-imm)
			branch(c)
			return StepContinue, nil
		}
	case isa.CMPrr:
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			c.flagsSub(a, b, a-b)
			branch(c)
			return StepContinue, nil
		}
	case isa.TESTrr:
		return func(c *CPU) (StopReason, *Trap) {
			c.flagsLogic(c.Regs[d] & c.Regs[s])
			branch(c)
			return StepContinue, nil
		}
	case isa.TESTri:
		return func(c *CPU) (StopReason, *Trap) {
			c.flagsLogic(c.Regs[d] & imm)
			branch(c)
			return StepContinue, nil
		}
	case isa.ADDri:
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			r := a + imm
			c.Regs[d] = r
			c.flagsAdd(a, imm, r)
			branch(c)
			return StepContinue, nil
		}
	case isa.ADDrr:
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			r := a + b
			c.Regs[d] = r
			c.flagsAdd(a, b, r)
			branch(c)
			return StepContinue, nil
		}
	case isa.SUBri:
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			r := a - imm
			c.Regs[d] = r
			c.flagsSub(a, imm, r)
			branch(c)
			return StepContinue, nil
		}
	case isa.SUBrr:
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			r := a - b
			c.Regs[d] = r
			c.flagsSub(a, b, r)
			branch(c)
			return StepContinue, nil
		}
	case isa.INCr:
		return func(c *CPU) (StopReason, *Trap) {
			cf := c.RFlags & isa.FlagCF
			a := c.Regs[d]
			r := a + 1
			c.Regs[d] = r
			c.flagsAdd(a, 1, r)
			c.RFlags = (c.RFlags &^ isa.FlagCF) | cf
			branch(c)
			return StepContinue, nil
		}
	case isa.DECr:
		return func(c *CPU) (StopReason, *Trap) {
			cf := c.RFlags & isa.FlagCF
			a := c.Regs[d]
			r := a - 1
			c.Regs[d] = r
			c.flagsSub(a, 1, r)
			c.RFlags = (c.RFlags &^ isa.FlagCF) | cf
			branch(c)
			return StepContinue, nil
		}
	}
	return nil
}

// eaCap is a captured effective-address computation, branchless:
// addr(c) = Regs[b]*bm + Regs[x]*xs + disp. An absent base or index keeps a
// zero multiplier (its register index then reads %rax, harmlessly), and
// %rip-relative or absolute operands fold entirely into disp — so every
// operand shape evaluates as the same three-term expression, which inlines
// into each memory thunk with no nested call per execution.
type eaCap struct {
	b, x   uint8  // GPR indices (masked on use, so addr stays bounds-check-free)
	bm, xs uint64 // base multiplier (0 or 1) and index scale (0 = no index)
	disp   uint64
}

func (e eaCap) addr(c *CPU) uint64 {
	return c.Regs[e.b&(isa.NumGPR-1)]*e.bm + c.Regs[e.x&(isa.NumGPR-1)]*e.xs + e.disp
}

// compileEA folds a memory operand into an eaCap. next is the instruction's
// successor address (the anchor of %rip-relative references — a constant,
// so RIP-relative and absolute operands fold to a single uint64).
func compileEA(m isa.MemRef, next uint64) eaCap {
	disp := uint64(int64(m.Disp))
	if m.RIPRel {
		return eaCap{disp: next + disp}
	}
	e := eaCap{disp: disp}
	if m.HasBase() {
		e.b, e.bm = uint8(m.Base), 1
	}
	if m.HasIndex() {
		e.x, e.xs = uint8(m.Index), uint64(m.Scale)
	}
	return e
}

// trapAt builds a trap of kind k raised by the instruction at c.RIP, with
// the instruction's own address as the trap address.
func (c *CPU) trapAt(k TrapKind) *Trap {
	return &Trap{Kind: k, Addr: c.RIP, RIP: c.RIP, Mode: c.Mode}
}

// Operand-free thunks are plain functions: building them allocates
// nothing.

func udThunk(c *CPU) (StopReason, *Trap)   { return StepContinue, c.trapAt(TrapUndefined) }
func int3Thunk(c *CPU) (StopReason, *Trap) { return StepContinue, c.trapAt(TrapBreakpoint) }

func hltThunk(c *CPU) (StopReason, *Trap) {
	if c.Mode != Kernel {
		return StepContinue, c.trapAt(TrapProtection)
	}
	return StopHalt, nil
}

func sysretThunk(c *CPU) (StopReason, *Trap) {
	if c.Mode != Kernel || !c.inSyscall {
		return StepContinue, c.trapAt(TrapUndefined)
	}
	c.ExitKernel()
	if c.StopOnSysret {
		return StopSysret, nil
	}
	return StepContinue, nil
}

func iretThunk(c *CPU) (StopReason, *Trap) {
	if c.Mode != Kernel {
		return StepContinue, c.trapAt(TrapProtection)
	}
	rip, t := c.pop()
	if t != nil {
		return StepContinue, t
	}
	rsp, t := c.pop()
	if t != nil {
		return StepContinue, t
	}
	rflags, t := c.pop()
	if t != nil {
		return StepContinue, t
	}
	c.RIP, c.RFlags = rip, rflags
	c.Regs[isa.RSP] = rsp
	c.Mode = User
	if c.MPXKernel {
		c.Bnd[0] = c.savedUserBnd0
	}
	if c.StopOnIret {
		return StopIret, nil
	}
	return StepContinue, nil
}

// compileEnt builds the flags-live thunk for one decoded instruction whose
// successor address is next. Every opcode has one; an opcode the decoder
// accepts but this switch does not know raises #UD.
func compileEnt(in *isa.Instr, next uint64) thunk {
	d, s := in.Dst, in.Src
	imm := uint64(in.Imm)

	switch in.Op {
	case isa.NOP, isa.SWAPGS:
		return nopThunk(next)
	case isa.HLT:
		return hltThunk
	case isa.INT3:
		return int3Thunk

	// --- data movement ---
	case isa.MOVri:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = imm
			c.RIP = next
			return StepContinue, nil
		}
	case isa.MOVrr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = c.Regs[s]
			c.RIP = next
			return StepContinue, nil
		}
	case isa.LEA:
		ea := compileEA(in.M, next)
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = ea.addr(c)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.MOVrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			c.Regs[d] = v
			c.RIP = next
			return StepContinue, nil
		}
	case isa.MOVmr:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.store(ea.addr(c), c.Regs[d], sz); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.MOVmi:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.store(ea.addr(c), imm, sz); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}

	// --- stack ---
	case isa.PUSH:
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.push(c.Regs[d]); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.POP:
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.pop()
			if t != nil {
				return StepContinue, t
			}
			c.Regs[d] = v
			c.RIP = next
			return StepContinue, nil
		}
	case isa.PUSHFQ:
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.push(c.RFlags); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.POPFQ:
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.pop()
			if t != nil {
				return StepContinue, t
			}
			c.RFlags = v
			c.RIP = next
			return StepContinue, nil
		}

	// --- arithmetic (the live forms; compileDead holds the fused ones) ---
	case isa.ADDri:
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			r := a + imm
			c.Regs[d] = r
			c.flagsAdd(a, imm, r)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.ADDrr:
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			r := a + b
			c.Regs[d] = r
			c.flagsAdd(a, b, r)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.ADDrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			b, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			a := c.Regs[d]
			r := a + b
			c.Regs[d] = r
			c.flagsAdd(a, b, r)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SUBri:
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			r := a - imm
			c.Regs[d] = r
			c.flagsSub(a, imm, r)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SUBrr:
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			r := a - b
			c.Regs[d] = r
			c.flagsSub(a, b, r)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SUBrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			b, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			a := c.Regs[d]
			r := a - b
			c.Regs[d] = r
			c.flagsSub(a, b, r)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.ANDri, isa.ORri, isa.XORri:
		op := in.Op
		return func(c *CPU) (StopReason, *Trap) {
			switch op {
			case isa.ANDri:
				c.Regs[d] &= imm
			case isa.ORri:
				c.Regs[d] |= imm
			default:
				c.Regs[d] ^= imm
			}
			c.flagsLogic(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}
	case isa.ANDrr, isa.ORrr, isa.XORrr:
		op := in.Op
		return func(c *CPU) (StopReason, *Trap) {
			switch op {
			case isa.ANDrr:
				c.Regs[d] &= c.Regs[s]
			case isa.ORrr:
				c.Regs[d] |= c.Regs[s]
			default:
				c.Regs[d] ^= c.Regs[s]
			}
			c.flagsLogic(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}
	case isa.XORrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			c.Regs[d] ^= v
			c.flagsLogic(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}
	case isa.XORmr:
		// read-modify-write: xor %reg into memory.
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			a := ea.addr(c)
			v, t := c.load(a, sz)
			if t != nil {
				return StepContinue, t
			}
			r := v ^ c.Regs[d]
			if t := c.store(a, r, sz); t != nil {
				return StepContinue, t
			}
			c.flagsLogic(r)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SHLri:
		sh := uint(imm) & 63
		return func(c *CPU) (StopReason, *Trap) {
			v := c.Regs[d]
			c.RFlags &^= isa.FlagCF | isa.FlagOF
			if sh > 0 && (v>>(64-sh))&1 != 0 {
				c.RFlags |= isa.FlagCF
			}
			c.Regs[d] = v << sh
			c.setSZP(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SHRri:
		sh := uint(imm) & 63
		return func(c *CPU) (StopReason, *Trap) {
			v := c.Regs[d]
			c.RFlags &^= isa.FlagCF | isa.FlagOF
			if sh > 0 && (v>>(sh-1))&1 != 0 {
				c.RFlags |= isa.FlagCF
			}
			c.Regs[d] = v >> sh
			c.setSZP(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SARri:
		sh := uint(imm) & 63
		return func(c *CPU) (StopReason, *Trap) {
			v := int64(c.Regs[d])
			c.RFlags &^= isa.FlagCF | isa.FlagOF
			if sh > 0 && (v>>(sh-1))&1 != 0 {
				c.RFlags |= isa.FlagCF
			}
			c.Regs[d] = uint64(v >> sh)
			c.setSZP(c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}
	case isa.NOTr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = ^c.Regs[d]
			c.RIP = next
			return StepContinue, nil
		}
	case isa.NEGr:
		return func(c *CPU) (StopReason, *Trap) {
			v := c.Regs[d]
			c.Regs[d] = -v
			c.flagsSub(0, v, c.Regs[d])
			c.RIP = next
			return StepContinue, nil
		}
	case isa.IMULrr, isa.IMULri:
		useImm := in.Op == isa.IMULri
		return func(c *CPU) (StopReason, *Trap) {
			b := imm
			if !useImm {
				b = c.Regs[s]
			}
			hi, lo := bits.Mul64(c.Regs[d], b)
			c.Regs[d] = lo
			c.RFlags &^= isa.FlagCF | isa.FlagOF
			if hi != 0 && hi != ^uint64(0) {
				c.RFlags |= isa.FlagCF | isa.FlagOF
			}
			c.setSZP(lo)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.INCr:
		// inc preserves CF (genuine x86 quirk).
		return func(c *CPU) (StopReason, *Trap) {
			cf := c.RFlags & isa.FlagCF
			a := c.Regs[d]
			r := a + 1
			c.Regs[d] = r
			c.flagsAdd(a, 1, r)
			c.RFlags = (c.RFlags &^ isa.FlagCF) | cf
			c.RIP = next
			return StepContinue, nil
		}
	case isa.DECr:
		return func(c *CPU) (StopReason, *Trap) {
			cf := c.RFlags & isa.FlagCF
			a := c.Regs[d]
			r := a - 1
			c.Regs[d] = r
			c.flagsSub(a, 1, r)
			c.RFlags = (c.RFlags &^ isa.FlagCF) | cf
			c.RIP = next
			return StepContinue, nil
		}

	// --- comparison ---
	case isa.CMPri:
		return func(c *CPU) (StopReason, *Trap) {
			a := c.Regs[d]
			c.flagsSub(a, imm, a-imm)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.CMPrr:
		return func(c *CPU) (StopReason, *Trap) {
			a, b := c.Regs[d], c.Regs[s]
			c.flagsSub(a, b, a-b)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.CMPrm:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			a := c.Regs[d]
			c.flagsSub(a, v, a-v)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.CMPmi:
		ea := compileEA(in.M, next)
		sz := in.AccessSize()
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), sz)
			if t != nil {
				return StepContinue, t
			}
			c.flagsSub(v, imm, v-imm)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.TESTrr:
		return func(c *CPU) (StopReason, *Trap) {
			c.flagsLogic(c.Regs[d] & c.Regs[s])
			c.RIP = next
			return StepContinue, nil
		}
	case isa.TESTri:
		return func(c *CPU) (StopReason, *Trap) {
			c.flagsLogic(c.Regs[d] & imm)
			c.RIP = next
			return StepContinue, nil
		}

	// --- control transfer (targets fold to constants) ---
	case isa.JMP:
		target := next + imm
		return func(c *CPU) (StopReason, *Trap) {
			c.RIP = target
			return StepContinue, nil
		}
	case isa.JMPR:
		return func(c *CPU) (StopReason, *Trap) {
			c.RIP = c.Regs[d]
			return StepContinue, nil
		}
	case isa.JMPM:
		ea := compileEA(in.M, next)
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), 8)
			if t != nil {
				return StepContinue, t
			}
			c.RIP = v
			return StepContinue, nil
		}
	case isa.JCC:
		cc := in.CC
		target := next + imm
		return func(c *CPU) (StopReason, *Trap) {
			if cc.Eval(c.RFlags) {
				c.RIP = target
			} else {
				c.RIP = next
			}
			return StepContinue, nil
		}
	case isa.CALL:
		target := next + imm
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.push(next); t != nil {
				return StepContinue, t
			}
			c.RIP = target
			return StepContinue, nil
		}
	case isa.CALLR:
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.push(next); t != nil {
				return StepContinue, t
			}
			c.RIP = c.Regs[d]
			return StepContinue, nil
		}
	case isa.CALLM:
		ea := compileEA(in.M, next)
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.load(ea.addr(c), 8)
			if t != nil {
				return StepContinue, t
			}
			if t := c.push(next); t != nil {
				return StepContinue, t
			}
			c.RIP = v
			return StepContinue, nil
		}
	case isa.RET, isa.RETI:
		// RETI releases imm bytes of arguments after popping; RET has imm 0.
		return func(c *CPU) (StopReason, *Trap) {
			v, t := c.pop()
			if t != nil {
				return StepContinue, t
			}
			c.Regs[isa.RSP] += imm
			if v == StopMagic {
				return StopReturn, nil
			}
			c.RIP = v
			return StepContinue, nil
		}

	// --- string operations ---
	case isa.MOVS, isa.STOS, isa.LODS, isa.CMPS, isa.SCAS:
		op, sf := in.Op, in.SF
		return func(c *CPU) (StopReason, *Trap) {
			if t := c.execString(op, sf); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.CLD:
		return func(c *CPU) (StopReason, *Trap) {
			c.RFlags &^= isa.FlagDF
			c.RIP = next
			return StepContinue, nil
		}
	case isa.STD:
		return func(c *CPU) (StopReason, *Trap) {
			c.RFlags |= isa.FlagDF
			c.RIP = next
			return StepContinue, nil
		}

	// --- system ---
	case isa.SYSCALL:
		return func(c *CPU) (StopReason, *Trap) {
			if c.Mode != User {
				return StepContinue, c.trapAt(TrapUndefined)
			}
			if c.SyscallEntry == 0 {
				return StepContinue, c.trapAt(TrapProtection)
			}
			c.EnterKernel(next)
			return StepContinue, nil
		}
	case isa.SYSRET:
		return sysretThunk
	case isa.IRET:
		return iretThunk
	case isa.WRMSR:
		return func(c *CPU) (StopReason, *Trap) {
			if c.Mode != Kernel {
				return StepContinue, c.trapAt(TrapProtection)
			}
			c.MSRs[c.Regs[isa.RCX]] = c.Regs[isa.RDX]<<32 | c.Regs[isa.RAX]&0xFFFFFFFF
			c.RIP = next
			return StepContinue, nil
		}
	case isa.RDMSR:
		return func(c *CPU) (StopReason, *Trap) {
			if c.Mode != Kernel {
				return StepContinue, c.trapAt(TrapProtection)
			}
			v := c.MSRs[c.Regs[isa.RCX]]
			c.Regs[isa.RAX] = v & 0xFFFFFFFF
			c.Regs[isa.RDX] = v >> 32
			c.RIP = next
			return StepContinue, nil
		}

	// --- MPX ---
	case isa.BNDCU:
		ea := compileEA(in.M, next)
		bnd := in.Bnd
		return func(c *CPU) (StopReason, *Trap) {
			a := ea.addr(c)
			if a > c.Bnd[bnd].UB {
				return StepContinue, &Trap{Kind: TrapBoundRange, Addr: a, RIP: c.RIP, Mode: c.Mode}
			}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.BNDCL:
		ea := compileEA(in.M, next)
		bnd := in.Bnd
		return func(c *CPU) (StopReason, *Trap) {
			a := ea.addr(c)
			if a < c.Bnd[bnd].LB {
				return StepContinue, &Trap{Kind: TrapBoundRange, Addr: a, RIP: c.RIP, Mode: c.Mode}
			}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.BNDMK:
		ea := compileEA(in.M, next)
		bnd := in.Bnd
		return func(c *CPU) (StopReason, *Trap) {
			c.Bnd[bnd] = Bound{LB: 0, UB: ea.addr(c)}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.BNDSTX:
		ea := compileEA(in.M, next)
		bnd := in.Bnd
		return func(c *CPU) (StopReason, *Trap) {
			a := ea.addr(c)
			if t := c.store(a, c.Bnd[bnd].LB, 8); t != nil {
				return StepContinue, t
			}
			if t := c.store(a+8, c.Bnd[bnd].UB, 8); t != nil {
				return StepContinue, t
			}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.BNDLDX:
		ea := compileEA(in.M, next)
		bnd := in.Bnd
		return func(c *CPU) (StopReason, *Trap) {
			a := ea.addr(c)
			lb, t := c.load(a, 8)
			if t != nil {
				return StepContinue, t
			}
			ub, t := c.load(a+8, 8)
			if t != nil {
				return StepContinue, t
			}
			c.Bnd[bnd] = Bound{LB: lb, UB: ub}
			c.RIP = next
			return StepContinue, nil
		}
	}
	return udThunk // UD2, and any opcode without semantics
}

// compileDead builds the fused no-flags thunk for an instruction whose
// arithmetic-flag results are never observed (see compileBlock), or
// returns nil when the opcode has no such form.
func compileDead(in *isa.Instr, next uint64) thunk {
	d, s := in.Dst, in.Src
	imm := uint64(in.Imm)

	switch in.Op {
	case isa.ADDri:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] += imm
			c.RIP = next
			return StepContinue, nil
		}
	case isa.ADDrr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] += c.Regs[s]
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SUBri:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] -= imm
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SUBrr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] -= c.Regs[s]
			c.RIP = next
			return StepContinue, nil
		}
	case isa.ANDri, isa.ORri, isa.XORri:
		op := in.Op
		return func(c *CPU) (StopReason, *Trap) {
			switch op {
			case isa.ANDri:
				c.Regs[d] &= imm
			case isa.ORri:
				c.Regs[d] |= imm
			default:
				c.Regs[d] ^= imm
			}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.ANDrr, isa.ORrr, isa.XORrr:
		op := in.Op
		return func(c *CPU) (StopReason, *Trap) {
			switch op {
			case isa.ANDrr:
				c.Regs[d] &= c.Regs[s]
			case isa.ORrr:
				c.Regs[d] |= c.Regs[s]
			default:
				c.Regs[d] ^= c.Regs[s]
			}
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SHLri:
		sh := uint(imm) & 63
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] <<= sh
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SHRri:
		sh := uint(imm) & 63
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] >>= sh
			c.RIP = next
			return StepContinue, nil
		}
	case isa.SARri:
		sh := uint(imm) & 63
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = uint64(int64(c.Regs[d]) >> sh)
			c.RIP = next
			return StepContinue, nil
		}
	case isa.NEGr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] = -c.Regs[d]
			c.RIP = next
			return StepContinue, nil
		}
	case isa.IMULrr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] *= c.Regs[s]
			c.RIP = next
			return StepContinue, nil
		}
	case isa.IMULri:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d] *= imm
			c.RIP = next
			return StepContinue, nil
		}
	case isa.INCr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d]++
			c.RIP = next
			return StepContinue, nil
		}
	case isa.DECr:
		return func(c *CPU) (StopReason, *Trap) {
			c.Regs[d]--
			c.RIP = next
			return StepContinue, nil
		}
	case isa.CMPri, isa.CMPrr, isa.TESTrr, isa.TESTri:
		// A dead compare has no architectural effect at all.
		return nopThunk(next)
	}
	return nil
}

// nopThunk falls through to next: NOP and SWAPGS, and the fused form of a
// dead CMP/TEST, whose sole architectural effect was flags nothing can
// observe.
func nopThunk(next uint64) thunk {
	return func(c *CPU) (StopReason, *Trap) {
		c.RIP = next
		return StepContinue, nil
	}
}
