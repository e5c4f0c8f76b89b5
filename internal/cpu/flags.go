package cpu

import (
	"math/bits"

	"repro/internal/isa"
)

// Flag computation helpers, called by the per-opcode thunks (thunk.go) and
// the string-op helpers (string.go). All ALU operations are 64-bit. The
// block lowering's liveness pass elides calls to these entirely
// for arithmetic whose flag results are provably overwritten before any
// observable read (see compileBlock); everywhere else they define the
// architectural %rflags contents bit for bit.

func parity(v uint64) bool {
	return bits.OnesCount8(uint8(v))%2 == 0
}

func (c *CPU) setSZP(r uint64) {
	c.RFlags &^= isa.FlagZF | isa.FlagSF | isa.FlagPF
	if r == 0 {
		c.RFlags |= isa.FlagZF
	}
	if r>>63 != 0 {
		c.RFlags |= isa.FlagSF
	}
	if parity(r) {
		c.RFlags |= isa.FlagPF
	}
}

func (c *CPU) flagsAdd(a, b, r uint64) {
	c.RFlags &^= isa.FlagCF | isa.FlagOF
	if r < a {
		c.RFlags |= isa.FlagCF
	}
	if (^(a ^ b) & (a ^ r) >> 63) != 0 {
		c.RFlags |= isa.FlagOF
	}
	c.setSZP(r)
}

func (c *CPU) flagsSub(a, b, r uint64) {
	c.RFlags &^= isa.FlagCF | isa.FlagOF
	if a < b {
		c.RFlags |= isa.FlagCF
	}
	if ((a ^ b) & (a ^ r) >> 63) != 0 {
		c.RFlags |= isa.FlagOF
	}
	c.setSZP(r)
}

func (c *CPU) flagsLogic(r uint64) {
	c.RFlags &^= isa.FlagCF | isa.FlagOF
	c.setSZP(r)
}
