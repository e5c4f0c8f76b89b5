package cpu

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// The golden differential corpus.
//
// testdata/golden/*.jsonl holds recorded executions, one case per line. A
// case is self-contained: the mappings and the bytes poked into them (code
// and data alike), the initial architectural state, an instruction limit,
// and the outcome. No case depends on a program generator staying stable.
//
// The outcomes were recorded once, from the original exec-switch
// interpreter running with the decode cache off, before per-opcode thunks
// became the only executor. They are the oracle that interpreter used to
// be: nothing in the tree regenerates them, so a semantic drift in a thunk
// shows up here as a diff against the recorded outcome instead of being
// re-recorded away. TestGoldenCorpus replays every case under every
// engine configuration and in a forked child.

// h64 is a uint64 spelled as a hex string in the corpus.
type h64 uint64

func (v *h64) UnmarshalText(b []byte) error {
	x, err := strconv.ParseUint(string(b), 0, 64)
	*v = h64(x)
	return err
}

// hexBytes is a byte string spelled as hex in the corpus.
type hexBytes []byte

func (v *hexBytes) UnmarshalText(b []byte) error {
	x, err := hex.DecodeString(string(b))
	*v = x
	return err
}

// goldenMap maps Pages fresh pages at VA, or — with Alias set — maps the
// frames already mapped at Alias a second time (a synonym).
type goldenMap struct {
	VA    h64      `json:"va"`
	Pages int      `json:"pages"`
	Perm  mem.Perm `json:"perm"`
	Alias h64      `json:"alias,omitempty"`
}

type goldenPoke struct {
	VA    h64      `json:"va"`
	Bytes hexBytes `json:"bytes"`
}

// goldenState is a case's initial CPU state.
type goldenState struct {
	Regs           [isa.NumGPR]h64    `json:"regs"`
	RIP            h64                `json:"rip"`
	RFlags         h64                `json:"rflags"`
	Bnd            [isa.NumBnd][2]h64 `json:"bnd"`
	Mode           string             `json:"mode"`
	SMEP           bool               `json:"smep,omitempty"`
	MPXKernel      bool               `json:"mpx_kernel,omitempty"`
	KernelBnd0     [2]h64             `json:"kernel_bnd0"`
	SyscallEntry   h64                `json:"syscall_entry"`
	FaultEntry     h64                `json:"fault_entry"`
	KernelStackTop h64                `json:"kernel_stack_top"`
	StopOnSysret   bool               `json:"stop_on_sysret,omitempty"`
	StopOnIret     bool               `json:"stop_on_iret,omitempty"`
	MSRs           [][2]h64           `json:"msrs,omitempty"`
}

type goldenTrap struct {
	Kind  string `json:"kind"`
	Addr  h64    `json:"addr"`
	RIP   h64    `json:"rip"`
	Mode  string `json:"mode"`
	Fault string `json:"fault,omitempty"` // mem.FaultKind of a #PF
}

// goldenOutcome is everything architecturally visible after the run.
// MemHash is FNV-64a over the bytes of every non-alias mapping, in Maps
// order.
type goldenOutcome struct {
	Reason  string             `json:"reason"`
	Trap    *goldenTrap        `json:"trap,omitempty"`
	HaltRIP h64                `json:"halt_rip,omitempty"`
	Regs    [isa.NumGPR]h64    `json:"regs"`
	RIP     h64                `json:"rip"`
	RFlags  h64                `json:"rflags"`
	Bnd     [isa.NumBnd][2]h64 `json:"bnd"`
	Mode    string             `json:"mode"`
	MSRs    [][2]h64           `json:"msrs,omitempty"`
	MemHash h64                `json:"mem_hash"`
	Instrs  uint64             `json:"instrs"`
	Cycles  uint64             `json:"cycles"`
}

type goldenCase struct {
	Name  string        `json:"name"`
	Maps  []goldenMap   `json:"maps"`
	Pokes []goldenPoke  `json:"pokes,omitempty"`
	Init  goldenState   `json:"init"`
	Limit uint64        `json:"limit"`
	Want  goldenOutcome `json:"want"`
}

func parseMode(s string) Mode {
	if s == Kernel.String() {
		return Kernel
	}
	return User
}

// build maps and fills a fresh address space and returns a CPU in the
// case's initial state (every engine layer at its default).
func (gc *goldenCase) build(t testing.TB) *CPU {
	t.Helper()
	as := mem.NewAddressSpace()
	for _, m := range gc.Maps {
		if m.Alias != 0 {
			frames, err := as.FramesAt(uint64(m.Alias), m.Pages)
			if err != nil {
				t.Fatal(err)
			}
			if err := as.MapFrames(uint64(m.VA), frames, m.Perm); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := as.Map(uint64(m.VA), m.Pages, m.Perm); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range gc.Pokes {
		if err := as.Poke(uint64(p.VA), p.Bytes); err != nil {
			t.Fatal(err)
		}
	}
	c := New(as)
	s := &gc.Init
	for i, r := range s.Regs {
		c.Regs[i] = uint64(r)
	}
	c.RIP, c.RFlags = uint64(s.RIP), uint64(s.RFlags)
	for i, b := range s.Bnd {
		c.Bnd[i] = Bound{LB: uint64(b[0]), UB: uint64(b[1])}
	}
	c.Mode = parseMode(s.Mode)
	c.SMEP, c.MPXKernel = s.SMEP, s.MPXKernel
	c.KernelBnd0 = Bound{LB: uint64(s.KernelBnd0[0]), UB: uint64(s.KernelBnd0[1])}
	c.SyscallEntry, c.FaultEntry = uint64(s.SyscallEntry), uint64(s.FaultEntry)
	c.KernelStackTop = uint64(s.KernelStackTop)
	c.StopOnSysret, c.StopOnIret = s.StopOnSysret, s.StopOnIret
	for _, kv := range s.MSRs {
		c.MSRs[uint64(kv[0])] = uint64(kv[1])
	}
	return c
}

// observe captures the outcome of res on c.
func (gc *goldenCase) observe(t testing.TB, c *CPU, res *RunResult) goldenOutcome {
	t.Helper()
	o := goldenOutcome{
		Reason: res.Reason.String(), HaltRIP: h64(res.HaltRIP),
		RIP: h64(c.RIP), RFlags: h64(c.RFlags), Mode: c.Mode.String(),
		Instrs: res.Instrs, Cycles: res.Cycles,
	}
	if tr := res.Trap; tr != nil {
		o.Trap = &goldenTrap{Kind: tr.Kind.String(), Addr: h64(tr.Addr), RIP: h64(tr.RIP), Mode: tr.Mode.String()}
		if tr.Fault != nil {
			o.Trap.Fault = tr.Fault.Kind.String()
		}
	}
	for i, r := range c.Regs {
		o.Regs[i] = h64(r)
	}
	for i, b := range c.Bnd {
		o.Bnd[i] = [2]h64{h64(b.LB), h64(b.UB)}
	}
	o.MSRs = sortedMSRs(c.MSRs)
	h := fnv.New64a()
	for _, m := range gc.Maps {
		if m.Alias != 0 {
			continue
		}
		b, err := c.AS.Peek(uint64(m.VA), m.Pages*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	o.MemHash = h64(h.Sum64())
	return o
}

// sortedMSRs flattens an MSR map into key-ordered pairs (nil when empty).
func sortedMSRs(m map[uint64]uint64) [][2]h64 {
	var out [][2]h64
	for k, v := range m {
		out = append(out, [2]h64{h64(k), h64(v)})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j][0] < out[j-1][0]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// runForked warms a parent on the case (so the cloned cache carries formed
// blocks and their successor links), rewinds memory and registers, forks,
// and runs the case in the child over the shared cache.
func (gc *goldenCase) runForked(t testing.TB) (*CPU, *RunResult) {
	t.Helper()
	parent := gc.build(t)
	s := parent.SaveState()
	parent.AS.Checkpoint()
	parent.Run(gc.Limit)
	if err := parent.AS.Rollback(); err != nil {
		t.Fatal(err)
	}
	parent.RestoreState(s)
	as, err := parent.AS.Fork()
	if err != nil {
		t.Fatal(err)
	}
	child := parent.Fork(as)
	return child, child.Run(gc.Limit)
}

func loadGolden(t testing.TB) []goldenCase {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden corpus: %v", err)
	}
	var cases []goldenCase
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var gc goldenCase
			if err := json.Unmarshal(sc.Bytes(), &gc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cases = append(cases, gc)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return cases
}

// TestGoldenCorpus replays the recorded corpus uncached, through the decode
// cache alone, through superblocks, and in a Fork child over a warm cloned
// cache. Every configuration must reproduce the recorded outcome exactly.
func TestGoldenCorpus(t *testing.T) {
	modes := []struct {
		name  string
		setup func(c *CPU)
	}{
		{"uncached", func(c *CPU) { c.SetDecodeCache(false) }},
		{"cache-only", func(c *CPU) { c.SetBlockEngine(false) }},
		{"blocks", func(c *CPU) {}},
	}
	cases := loadGolden(t)
	families := map[string]int{}
	for i := range cases {
		gc := &cases[i]
		families[filepath.Dir(gc.Name)]++
		check := func(mode string, c *CPU, res *RunResult) {
			if got := gc.observe(t, c, res); !reflect.DeepEqual(got, gc.Want) {
				t.Errorf("%s [%s]:\n got: %s\nwant: %s", gc.Name, mode, goldenJSON(got), goldenJSON(gc.Want))
			}
		}
		for _, m := range modes {
			c := gc.build(t)
			m.setup(c)
			check(m.name, c, c.Run(gc.Limit))
		}
		c, res := gc.runForked(t)
		check("fork", c, res)
	}
	for _, fam := range []string{"alu", "mix", "mpx", "string", "trap", "smc", "sys", "flags"} {
		if families[fam] == 0 {
			t.Errorf("golden corpus has no %q cases", fam)
		}
	}
}

// goldenJSON renders an outcome for a failure message (h64 fields print as
// decimal here; the diff is what matters).
func goldenJSON(o goldenOutcome) string {
	b, _ := json.Marshal(o)
	return string(b)
}
