package cpu

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// The basic-block superblock engine.
//
// The decode cache (dcache.go) removed per-instruction decode cost, but the
// Run loop still paid a full dispatch per instruction: a decode-cache lookup
// (TLB slot, map-generation compare, frame-generation compare, index load),
// the fetch privilege checks, the limit check, and the probe check. Classic
// DBT systems (QEMU's translation-block chaining, Embra's fast paths)
// amortize that dispatch over straight-line regions; this engine does the
// same on top of the cached decodes.
//
// A block is a maximal run of consecutively cached instructions on one page,
// ending at (and including) the first terminator: any control transfer
// (jmp/jcc/call/ret/iret/syscall/sysret), a trapping or serializing
// instruction (hlt/int3/ud2), or a string operation (whose REP cost is
// dynamic — the static per-block cost precomputation cannot cover it).
// Formation also stops short of a cached deterministic-#UD slot and at the
// page-tail boundary (offsets the decode cache leaves undecided), so every
// entry in a block is a fully decoded instruction of this frame's bytes.
//
// A block forms the first time its entry offset is dispatched. Formation is
// cheap enough not to defer: it copies the entries' thunks (built at
// decode, dcache.go) and runs the flag-liveness pass.
//
// Block chaining keeps the dispatch cost amortized across blocks. Each block
// carries two successor links (taken / fallthrough), resolved lazily the
// first time the block exits to that successor. While a link validates,
// runChain executes block-to-block in a single loop without returning to
// Run's dispatcher — no TLB probe, no map lookup, no blkIdx load on the hot
// edge. Validation is exactly what blockLookup would do (see chainNext):
// same frame identity, same content generation, same map generation, and
// the link's own resolution generation; any mismatch severs the link and
// falls back to the full lookup, which revalidates (flushing and re-forming
// as needed) before anything executes.
//
// Validation is hoisted to block granularity: the page's frame is resolved
// and its MapGen/Frame.Gen generations are checked ONCE at block entry (by
// blockLookup through resolvePage, or by chainNext's equivalent link
// checks), and the block then executes in a tight loop with no
// per-instruction lookups. Three things make that sound:
//
//   - Control flow cannot leave the block silently: every instruction that
//     can set RIP anywhere but the next sequential address is a terminator,
//     so entry k+1 is always the instruction at entry k's end.
//
//   - The privilege mode cannot change mid-block: mode switches happen only
//     in terminators (syscall/sysret/iret) or through trap delivery, which
//     exits the block. The fetch privilege checks (user/upper-half, SMEP)
//     done once at block entry therefore hold for every instruction in it —
//     and runChain re-checks them before every chained block entry, because
//     a terminator may have switched the mode.
//
//   - Self-modification cannot outrun invalidation: after every instruction
//     that can store to memory (flagged dcStore at decode time), the frame
//     generation is re-checked; a mismatch means the block just overwrote
//     its own page, so execution aborts back to the dispatch loop, whose
//     next lookup flushes and redecodes. Stores to *other* pages need no
//     mid-block check — their cached blocks revalidate at next entry, and
//     their inbound chain links fail the generation checks and sever.
//
// A block is its entries' thunks (thunk.go), lowered once at formation:
// the dispatch loop calls them in order and charges Instrs/Cycles for the
// whole (possibly partial) run from the cumulative sums in cthunk. Every
// entry that began executing — including one that trapped — is charged, so
// a mid-block trap observes exactly the counter state the single-step path
// would. The precomputed instruction count feeds the limit guard.

// BlockStats reports superblock-engine behaviour for one CPU. All counters
// except Blocks are cumulative: they survive page flushes, SetBlockEngine
// toggles, and SetDecodeCache toggles (the counters live on the CPU, not on
// the cache they describe). Blocks is the current live footprint.
//
// The Step* counters say why Run single-stepped an instruction while the
// engine was on: each counts one Run loop iteration that bypassed block
// dispatch, by the first reason that applied.
type BlockStats struct {
	Formed     uint64 // blocks ever formed (cumulative, survives flushes)
	Dispatches uint64 // block executions entered via the Run fast path or a chain
	Instrs     uint64 // instructions executed inside dispatched blocks
	Aborts     uint64 // mid-block self-modification resyncs
	Chained    uint64 // block-to-block transitions that bypassed the dispatcher
	Severed    uint64 // successor links invalidated by the generation checks
	Compiled   uint64 // blocks lowered to thunk arrays (cumulative; every block lowers when it forms)
	Fused      uint64 // block entries whose flag computation the liveness pass elided
	Blocks     uint64 // blocks currently live (on pages that would still validate)

	StepProbe   uint64 // an exec probe was installed
	StepPriv    uint64 // a fetch privilege check failed (user at upper half, or SMEP)
	StepLimit   uint64 // the remaining Run limit was shorter than the block
	StepNoBlock uint64 // no block at this offset: #UD, page tail, or not executable

	// Cold always reads 0.
	//
	// Deprecated: blocks form on first dispatch; there is no hotness gate
	// left to defer them.
	Cold uint64
}

// Entry flag bits, computed once at decode time (dcache.fill).
const (
	// dcEnd marks a block terminator: control transfer, trapping or
	// serializing instruction, or a dynamic-cost string operation.
	dcEnd uint8 = 1 << iota
	// dcStore marks an instruction that can write memory on the straight-
	// line path (isa.Instr.WritesMemory minus the string ops, which are
	// terminators, plus the implicit stack/bound-table stores it excludes).
	dcStore
	// dcFW marks an instruction that unconditionally overwrites ALL of the
	// arithmetic flags (CF/OF/SF/ZF/PF) and cannot trap — the only kind of
	// overwrite the flag-liveness pass (compileBlock) may count as killing
	// an earlier flag result. Memory-operand ALU forms are excluded: they
	// can fault before writing flags.
	dcFW
	// dcFR marks an instruction that reads arithmetic flags (jcc, pushfq,
	// syscall's %r11 spill, inc/dec's CF preservation, repe cmps/scas), so
	// flags must be architectural when it executes.
	dcFR
	// dcTrap marks an instruction that may raise a trap mid-block: the trap
	// path observes %rflags, so flags must be architectural at its entry.
	dcTrap
)

// entryFlags classifies one decoded instruction for block formation and for
// the block lowering's flag-liveness pass (thunk.go). The classification is
// conservative by construction: an opcode missing from the trap-free list is
// dcTrap, an opcode missing from the writer list never kills liveness, and
// an opcode missing from the reader list is protected by the block-exit and
// dcTrap rules. Only misclassifying an op as dcFW (claiming it always writes
// all arithmetic flags and cannot fault) or omitting a genuine flag reader
// from dcFR could break bit-identity — both lists below name exactly the
// thunk.go constructors with those properties.
func entryFlags(op isa.Opcode) uint8 {
	var f uint8

	// Trap-free instructions: no memory access, no privilege check, no
	// decode-dependent #UD (the decoder already proved the opcode valid).
	switch op {
	case isa.NOP, isa.SWAPGS, isa.MOVri, isa.MOVrr, isa.LEA,
		isa.ADDri, isa.ADDrr, isa.SUBri, isa.SUBrr,
		isa.ANDri, isa.ANDrr, isa.ORri, isa.ORrr, isa.XORri, isa.XORrr,
		isa.SHLri, isa.SHRri, isa.SARri,
		isa.NOTr, isa.NEGr, isa.IMULrr, isa.IMULri, isa.INCr, isa.DECr,
		isa.CMPri, isa.CMPrr, isa.TESTrr, isa.TESTri,
		isa.JMP, isa.JMPR, isa.JCC, isa.CLD, isa.STD, isa.BNDMK:
		// trap-free
	default:
		f |= dcTrap
	}

	// Unconditional full arithmetic-flag writers (trap-free by the list
	// above — the rm/mi forms are deliberately absent). Shifts qualify
	// because this ISA's shift semantics write CF/OF/SF/ZF/PF even for a
	// masked-to-zero count (unlike hardware x86).
	switch op {
	case isa.ADDri, isa.ADDrr, isa.SUBri, isa.SUBrr,
		isa.ANDri, isa.ANDrr, isa.ORri, isa.ORrr, isa.XORri, isa.XORrr,
		isa.SHLri, isa.SHRri, isa.SARri, isa.NEGr, isa.IMULrr, isa.IMULri,
		isa.CMPri, isa.CMPrr, isa.TESTrr, isa.TESTri:
		f |= dcFW
	}

	// Arithmetic-flag readers. JCC evaluates its condition; PUSHFQ spills
	// %rflags; SYSCALL saves %rflags into %r11 (EnterKernel); INC/DEC
	// preserve CF, which is a read; REPE CMPS/SCAS test ZF between
	// elements (and POPFQ/IRET swap the whole register — they are dcTrap
	// anyway, but the read is real).
	switch op {
	case isa.JCC, isa.PUSHFQ, isa.SYSCALL, isa.INCr, isa.DECr,
		isa.CMPS, isa.SCAS, isa.POPFQ, isa.IRET:
		f |= dcFR
	}

	switch op {
	case isa.JMP, isa.JMPR, isa.JMPM, isa.JCC,
		isa.CALL, isa.CALLR, isa.CALLM,
		isa.RET, isa.RETI, isa.IRET,
		isa.SYSCALL, isa.SYSRET,
		isa.HLT, isa.INT3, isa.UD2,
		isa.MOVS, isa.STOS, isa.LODS, isa.CMPS, isa.SCAS:
		f |= dcEnd
	case isa.MOVmr, isa.MOVmi, isa.XORmr, isa.PUSH, isa.PUSHFQ, isa.BNDSTX:
		f |= dcStore
	}
	return f
}

// blkLink is one cached successor edge of a block, filled in lazily the
// first time the block exits toward that successor. Following it must be
// exactly as safe as a fresh blockLookup, which chainNext guarantees by
// re-deriving every generation blockLookup's resolvePage would check:
//
//   - frame must still be the page's resolved frame (identity, not just
//     generation — two frames' generation counters can coincide),
//   - fgen must equal both the page's decode generation (p.fgen) and the
//     frame's live generation: the page was neither flushed+re-formed nor
//     written since the link was resolved,
//   - the address space's MapGen must equal the page's mgen: no remap,
//     protect, shadow, or rollback has restructured the translation since
//     the page was last validated.
//
// A link can never dangle into wrong code: links live inside blocks, so
// every event that drops blocks (flush, SetBlockEngine(false)) destroys the
// links with them, and every event that re-forms a page's blocks bumps the
// generations the link pins.
type blkLink struct {
	p     *dcPage
	frame *mem.Frame
	bi    int32
	rip   uint64
	fgen  uint64
}

// dcBlock is one superblock: the thunks of consecutive instructions of its
// page, terminator (if any) last, plus its lazily resolved successor links.
// The thunk array is immutable once formed, so COW forks share it; the
// dcBlock VALUE — links and the slice header — is cloned per fork
// (fork.go).
type dcBlock struct {
	comp  []cthunk // one per entry, minus one when the tail cmp/jcc pair fused
	count uint64   // instructions in the block: the Run fast path's limit guard
	blen  uint64   // byte length: entry VA + blen = fallthrough VA
	taken blkLink
	fall  blkLink
}

// formBlock builds (and registers) the block starting at page offset off,
// decoding forward as needed, and lowers it to its thunk array. It returns
// the blkIdx value for off: >0 for blocks[i-1], -1 when no block can start
// here (a cached #UD or an undecidable page-tail offset — the single-step
// path owns those).
func (p *dcPage) formBlock(off int, c *CPU) int32 {
	dc := c.dc
	start := off
	var ents []*dcEntry
	var blen uint64
	for off < mem.PageSize {
		i := p.idx[off]
		if i == 0 {
			dc.stats.Misses++
			p.fill(off, dc.stats)
			i = p.idx[off]
		}
		if i <= 0 {
			// #UD slot or page-tail straddler: the block ends before it;
			// the dispatch loop falls back to Step for the offset itself.
			break
		}
		// Pointers stay valid while later fills append: entries are
		// never rewritten in place until the page flushes, and a flush
		// cannot happen mid-formation.
		e := &p.entries[i-1]
		ents = append(ents, e)
		blen += uint64(e.ilen)
		if e.flags&dcEnd != 0 {
			break
		}
		off += int(e.ilen)
	}
	if len(ents) == 0 {
		p.blkIdx[start] = -1
		return -1
	}
	comp, fused := compileBlock(ents, p.va+uint64(start))
	p.blocks = append(p.blocks, dcBlock{comp: comp, count: uint64(len(ents)), blen: blen})
	bi := int32(len(p.blocks))
	p.blkIdx[start] = bi
	c.bstats.Formed++
	c.bstats.Compiled++
	c.bstats.Fused += fused
	return bi
}

// blockLookup resolves rip to a superblock, validating the page's
// generations exactly as the per-instruction lookup does and forming the
// block on first dispatch. It returns (nil, nil) when no block is available
// at rip — not executable, a cached #UD, or a page-tail offset — and the
// caller must fall back to single-step.
func (c *CPU) blockLookup(rip uint64) (*dcPage, *dcBlock) {
	p := c.dc.resolvePage(c.AS, rip)
	if p == nil {
		return nil, nil
	}
	off := int(rip & uint64(mem.PageMask))
	bi := p.blkIdx[off]
	if bi == 0 {
		bi = p.formBlock(off, c)
	}
	if bi < 0 {
		return nil, nil
	}
	return p, &p.blocks[bi-1]
}

// blockStep is Run's fast-path dispatch when the engine is armed: it enters
// the chain executor at RIP's block, or single-steps when no block starts
// there or the remaining limit is shorter than the block. The caller
// guarantees probe-free execution and the block-entry privilege
// preconditions.
func (c *CPU) blockStep(limit, done, startInstrs uint64) (StopReason, *Trap) {
	p := c.dc.resolvePage(c.AS, c.RIP)
	if p == nil {
		// Not executable (or unmapped): the slow fetch raises the
		// authoritative fault.
		c.bstats.StepNoBlock++
		return c.stepSlow()
	}
	off := int(c.RIP & uint64(mem.PageMask))
	bi := p.blkIdx[off]
	if bi == 0 {
		bi = p.formBlock(off, c)
	}
	if bi < 0 {
		c.bstats.StepNoBlock++
		return c.Step()
	}
	b := &p.blocks[bi-1]
	if limit != 0 && limit-done < b.count {
		c.bstats.StepLimit++
		return c.Step()
	}
	return c.runChain(p, b, limit, startInstrs)
}

// runBlock executes one superblock: a direct call per thunk, no
// per-instruction lookup or accounting — the whole (possibly partial) run
// is charged in one shot from the cumulative cycle sums. complete reports
// that every entry executed with no trap, stop, or self-modification abort
// — the only state from which chaining into a successor is allowed.
func (c *CPU) runBlock(p *dcPage, b *dcBlock) (stop StopReason, trap *Trap, complete bool) {
	fgen := p.fgen
	frame := p.frame
	last := len(b.comp) - 1
	i := 0
	for {
		ct := &b.comp[i]
		stop, trap = ct.fn(c)
		if trap != nil || stop != StepContinue {
			break
		}
		if i == last {
			// The block ran to completion; a store by this final entry needs
			// no generation re-check — there are no stale entries left to
			// execute, and both the dispatcher's next lookup and any chain
			// link revalidate before anything else runs.
			complete = true
			break
		}
		if ct.flags&dcStore != 0 && (frame.Gen() != fgen || c.AS.MapGen() != p.mgen) {
			// The store landed on this very frame (directly or through an
			// alias) — or broke copy-on-write on a frozen executable page,
			// which repoints the mapping at a fresh frame under a mapGen
			// bump without touching the old frame's gen. Either way the
			// rest of the block is stale. Resync through the dispatch loop —
			// its next lookup re-resolves, flushes, and redecodes. The
			// liveness pass treated every dcStore entry as a possible block
			// exit, so flags are architectural here.
			c.bstats.Aborts++
			break
		}
		i++
	}
	// Batched accounting: every entry that began executing — including one
	// that trapped — is charged, as the single-step path charges before it
	// executes. The cumulative fields (not i) supply the totals because a
	// tail-fused entry retires two instructions. Nothing reads
	// Instrs/Cycles mid-block (limit checks and chain budgeting run between
	// dispatches), so the deferral is unobservable; dynamic cycles (REP
	// string elements) were already added by the thunk itself.
	done := uint64(b.comp[i].ni)
	c.Instrs += done
	c.Cycles += b.comp[i].cyc
	c.dc.stats.Hits += done
	c.bstats.Instrs += done
	c.bstats.Dispatches++
	return stop, trap, complete
}

// chainNext resolves the successor of a just-completed block (entered at
// entry) to the next block to execute, or nil when the chain must break and
// control return to Run's dispatcher. The terminator's outcome picks the
// slot: c.RIP equal to the block's fallthrough address selects the fall
// link (jcc not taken, or a block cut at a formation boundary); anything
// else selects the taken link (jumps, calls, returns, mode switches). A
// cached link is followed only if every generation it pinned still holds
// (see blkLink); otherwise it is severed and re-resolved through the full
// blockLookup — so a stale link can never execute stale bytes, and an
// invalidated successor is re-formed exactly as if the chain had never
// existed.
func (c *CPU) chainNext(b *dcBlock, entry uint64) (*dcPage, *dcBlock) {
	l := &b.taken
	if c.RIP == entry+b.blen {
		l = &b.fall
	}
	if l.p != nil && l.rip == c.RIP {
		p := l.p
		if p.frame == l.frame && l.frame != nil &&
			p.fgen == l.fgen && l.frame.Gen() == l.fgen &&
			p.mgen == c.AS.MapGen() &&
			l.bi > 0 && int(l.bi) <= len(p.blocks) {
			c.bstats.Chained++
			return p, &p.blocks[l.bi-1]
		}
		*l = blkLink{}
		c.bstats.Severed++
	}
	np, nb := c.blockLookup(c.RIP)
	if nb == nil {
		return nil, nil
	}
	*l = blkLink{p: np, frame: np.frame, bi: np.blkIdx[int(c.RIP&uint64(mem.PageMask))], rip: c.RIP, fgen: np.fgen}
	c.bstats.Chained++
	return np, nb
}

// runChain executes a chain of superblocks starting at b, following
// successor links until a block stops, traps, aborts, fails a fetch
// privilege precondition, exits to an unformable successor, or
// would overrun the remaining instruction budget. Every condition Run's
// dispatcher would check between two blocks is re-checked here between two
// chained blocks — the chain is transparent: it only skips the dispatcher's
// redundant lookups, never its semantics.
func (c *CPU) runChain(p *dcPage, b *dcBlock, limit, startInstrs uint64) (StopReason, *Trap) {
	for {
		entry := c.RIP
		stop, trap, complete := c.runBlock(p, b)
		if !complete || trap != nil || stop != StepContinue || c.Pending != nil {
			return stop, trap
		}
		// A terminator may have switched the mode (syscall/sysret/iret):
		// re-establish the fetch privilege preconditions before chaining.
		if c.Mode == User && c.RIP >= UpperHalf {
			return stop, trap
		}
		if c.SMEP && c.Mode == Kernel && c.RIP < UpperHalf {
			return stop, trap
		}
		np, nb := c.chainNext(b, entry)
		if nb == nil {
			return stop, trap
		}
		if limit > 0 && limit-(c.Instrs-startInstrs) < nb.count {
			return stop, trap
		}
		p, b = np, nb
	}
}

// SetBlockEngine enables or disables the superblock engine (on by default).
// Blocks are a pure dispatch optimization layered on the decode cache:
// disabling it reverts Run to per-instruction Step dispatch, with
// bit-identical Instrs/Cycles/traps/probe streams either way. It has no
// effect while the decode cache is off.
func (c *CPU) SetBlockEngine(on bool) {
	c.blocks = on
	if !on && c.dc != nil {
		// Drop formed blocks so the live Blocks stat reads zero; the decoded
		// entries stay (they belong to the decode cache). Every successor link dies here with the block that holds it — a
		// re-enabled engine re-forms blocks with empty links, so no chain
		// can survive a disable/enable cycle and index into the rebuilt
		// block lists.
		for _, p := range c.dc.pages {
			p.blocks = nil
			p.blkIdx = [mem.PageSize]int32{}
		}
	}
}

// BlockEngineEnabled reports whether the superblock engine is active (it
// also requires the decode cache to be enabled to take effect).
func (c *CPU) BlockEngineEnabled() bool { return c.blocks && c.dc != nil }

// SetBlockCompile is a no-op kept for source compatibility.
//
// Deprecated: superblocks are always lowered to per-opcode thunks when
// they form; there is no interpreted block dispatcher left to select.
func (c *CPU) SetBlockCompile(bool) {}

// SetBlockHotThreshold is a no-op kept for source compatibility.
//
// Deprecated: a superblock forms the first time its entry offset is
// dispatched; there is no hotness gate left to tune.
func (c *CPU) SetBlockHotThreshold(int) {}

// SeedHotProfile is a no-op kept for source compatibility.
//
// Deprecated: there is no hotness ramp left for a heat profile to skip.
func (c *CPU) SeedHotProfile([]uint64) {}

// BlockStats returns a snapshot of the superblock-engine counters. The
// cumulative counters survive flushes and SetBlockEngine/SetDecodeCache
// toggles; Blocks reflects the current live footprint and only counts
// blocks whose page would still pass content validation — a page whose
// frame was rewritten holds its stale blocks only until the next lookup
// flushes them, and they are already dead weight, not live cache.
func (c *CPU) BlockStats() BlockStats {
	s := c.bstats
	if c.dc == nil {
		return s
	}
	for _, p := range c.dc.pages {
		if p.frame == nil || p.frame.Gen() != p.fgen {
			continue
		}
		s.Blocks += uint64(len(p.blocks))
	}
	return s
}
