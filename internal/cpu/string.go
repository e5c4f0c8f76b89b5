package cpu

import (
	"encoding/binary"

	"repro/internal/isa"
	"repro/internal/mem"
)

// String instructions. Their thunks (thunk.go) call execString, which runs
// the element loop — or, for ascending REP MOVS/STOS, execRepBulk's
// page-sized runs — and charges isa.StrUnitCost per REP element on top of
// the base cost the caller charged.

// execString executes a (possibly REP-prefixed) string instruction.
func (c *CPU) execString(op isa.Opcode, sf isa.StrFlags) *Trap {
	w := uint64(sf.Width())
	step := int64(w)
	if c.RFlags&isa.FlagDF != 0 {
		step = -step
	}
	one := func() (stop bool, t *Trap) {
		switch op {
		case isa.MOVS:
			v, t := c.load(c.Regs[isa.RSI], uint8(w))
			if t != nil {
				return false, t
			}
			if t := c.store(c.Regs[isa.RDI], v, uint8(w)); t != nil {
				return false, t
			}
			c.Regs[isa.RSI] += uint64(step)
			c.Regs[isa.RDI] += uint64(step)
		case isa.STOS:
			if t := c.store(c.Regs[isa.RDI], c.Regs[isa.RAX], uint8(w)); t != nil {
				return false, t
			}
			c.Regs[isa.RDI] += uint64(step)
		case isa.LODS:
			v, t := c.load(c.Regs[isa.RSI], uint8(w))
			if t != nil {
				return false, t
			}
			c.Regs[isa.RAX] = v
			c.Regs[isa.RSI] += uint64(step)
		case isa.CMPS:
			a, t := c.load(c.Regs[isa.RSI], uint8(w))
			if t != nil {
				return false, t
			}
			b, t := c.load(c.Regs[isa.RDI], uint8(w))
			if t != nil {
				return false, t
			}
			c.flagsSub(a, b, a-b)
			c.Regs[isa.RSI] += uint64(step)
			c.Regs[isa.RDI] += uint64(step)
			return c.RFlags&isa.FlagZF == 0, nil // repe semantics
		case isa.SCAS:
			b, t := c.load(c.Regs[isa.RDI], uint8(w))
			if t != nil {
				return false, t
			}
			a := c.Regs[isa.RAX]
			c.flagsSub(a, b, a-b)
			c.Regs[isa.RDI] += uint64(step)
			return c.RFlags&isa.FlagZF == 0, nil
		}
		return false, nil
	}
	if !sf.Rep() {
		_, t := one()
		return t
	}
	if step > 0 && (op == isa.MOVS || op == isa.STOS) {
		return c.execRepBulk(op, w, one)
	}
	// Guard: a hijacked control flow landing mid-stream can execute a rep
	// with a garbage (huge) %rcx; bound the per-instruction work so the
	// emulator cannot hang inside a single Step. Real code never gets
	// near the cap; runaway reps die on #GP like other emulator limits.
	const repCap = 1 << 22
	for n := 0; c.Regs[isa.RCX] != 0; n++ {
		if n >= repCap {
			return c.trapAt(TrapProtection)
		}
		stop, t := one()
		if t != nil {
			return t
		}
		c.Regs[isa.RCX]--
		c.Cycles += isa.StrUnitCost
		if stop {
			break
		}
	}
	return nil
}

// execRepBulk executes an ascending REP MOVS/STOS in page-sized runs: one
// translation + permission check (mem.ReadRun/WriteRun) covers every element
// that fits wholly inside the current source and destination pages, instead
// of one per element — kernel memcpy/memset is the emulator's hottest
// instruction by a wide margin. Architected state evolves exactly as the
// per-element loop's: registers, cycles, and the rep cap advance per
// completed element, a faulting run traps with the registers reflecting the
// elements already done, and every case with per-element-visible semantics —
// an element straddling a page boundary (whose partial byte progress the
// byte-loop store defines), a user-mode access at the kernel boundary, or
// overlapping MOVS operands (ascending element copy replicates patterns;
// memmove would not) — falls back to the one() element closure.
func (c *CPU) execRepBulk(op isa.Opcode, w uint64, one func() (bool, *Trap)) *Trap {
	const repCap = 1 << 22 // same runaway-rep guard as the element loop
	for n := uint64(0); c.Regs[isa.RCX] != 0; {
		if n >= repCap {
			return c.trapAt(TrapProtection)
		}
		di := c.Regs[isa.RDI]
		k := (mem.PageSize - di&mem.PageMask) / w
		si := uint64(0)
		if op == isa.MOVS {
			si = c.Regs[isa.RSI]
			if ks := (mem.PageSize - si&mem.PageMask) / w; ks < k {
				k = ks
			}
		}
		if rcx := c.Regs[isa.RCX]; rcx < k {
			k = rcx
		}
		if left := repCap - n; left < k {
			k = left
		}
		bytes := k * w
		if k == 0 || // element straddles a page boundary
			(c.Mode == User && (di >= UpperHalf || (op == isa.MOVS && si >= UpperHalf))) ||
			(op == isa.MOVS && si < di+bytes && di < si+bytes) {
			if _, t := one(); t != nil {
				return t
			}
			c.Regs[isa.RCX]--
			c.Cycles += isa.StrUnitCost
			n++
			continue
		}
		if op == isa.MOVS {
			src, f := c.AS.ReadRun(si)
			if f != nil {
				return &Trap{Kind: TrapPageFault, Addr: si, RIP: c.RIP, Mode: c.Mode, Fault: f}
			}
			dst, f := c.AS.WriteRun(di)
			if f != nil {
				return &Trap{Kind: TrapPageFault, Addr: di, RIP: c.RIP, Mode: c.Mode, Fault: f}
			}
			copy(dst[:bytes], src[:bytes])
			c.Regs[isa.RSI] += bytes
		} else { // STOS
			dst, f := c.AS.WriteRun(di)
			if f != nil {
				return &Trap{Kind: TrapPageFault, Addr: di, RIP: c.RIP, Mode: c.Mode, Fault: f}
			}
			fill := dst[:bytes]
			var eb [8]byte
			binary.LittleEndian.PutUint64(eb[:], c.Regs[isa.RAX])
			copy(fill, eb[:w])
			for done := w; done < bytes; done *= 2 {
				copy(fill[done:], fill[:done])
			}
		}
		c.Regs[isa.RDI] += bytes
		c.Regs[isa.RCX] -= k
		c.Cycles += k * isa.StrUnitCost
		n += k
	}
	return nil
}
