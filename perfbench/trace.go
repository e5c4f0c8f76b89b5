package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Span is one timed call into a layer, recorded from outside the program:
// the benchmark opens a span, calls the layer's public function, and closes
// it. Spans of one unit share Unit; Iter is the iteration or op index inside
// the unit (-1 when none).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index in the tracer's spans; -1 for a unit root
	Unit   int    `json:"unit"`
	Iter   int    `json:"iter"`
	// Instrs is the emulated instruction count the call retired, where the
	// benchmark can read it (exec and op spans).
	Instrs uint64 `json:"instrs,omitempty"`
	// Alloc is the Go heap bytes allocated inside the span, for spans opened
	// with BeginAlloc (runtime.ReadMemStats stops the world, so only coarse
	// spans pay for it).
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

// Tracer keeps spans in memory for the whole run; Dump writes them out when
// the run ends. A nil *Tracer is tracing off: every method is a no-op, so
// the untraced and traced runs of a workload share one code path.
type Tracer struct {
	t0    time.Time
	spans []Span
	open  int // innermost open span, -1 when none
	unit  int
	ms    runtime.MemStats
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now(), open: -1} }

// BeginUnit opens the root span of unit u.
func (t *Tracer) BeginUnit(name string, u int) int {
	if t == nil {
		return -1
	}
	t.unit = u
	return t.Begin(name, -1)
}

// Begin opens a span nested in the innermost open one and returns its id.
func (t *Tracer) Begin(name string, iter int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{
		Name: name, Start: int64(time.Since(t.t0)), Parent: t.open, Unit: t.unit, Iter: iter,
	})
	t.open = len(t.spans) - 1
	return t.open
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	if id != t.open {
		panic(fmt.Sprintf("perfbench: span %d closed while %d is open", id, t.open))
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.spans[id].Parent
}

// BeginAlloc is Begin plus a heap-allocation reading; close it with EndAlloc.
// The readings sit inside the parent span, so they count as the parent's
// self time and never open a gap between top-level spans.
func (t *Tracer) BeginAlloc(name string, iter int) int {
	if t == nil {
		return -1
	}
	runtime.ReadMemStats(&t.ms)
	before := t.ms.TotalAlloc
	id := t.Begin(name, iter)
	t.spans[id].Alloc = before
	return id
}

// EndAlloc closes a span opened by BeginAlloc.
func (t *Tracer) EndAlloc(id int) {
	if t == nil {
		return
	}
	t.End(id)
	runtime.ReadMemStats(&t.ms)
	t.spans[id].Alloc = t.ms.TotalAlloc - t.spans[id].Alloc
}

// Rename relabels span id once its outcome is known (an exec becomes clean
// or audited only after it returns).
func (t *Tracer) Rename(id int, name string) {
	if t != nil {
		t.spans[id].Name = name
	}
}

// SetInstrs records the emulated instructions span id retired.
func (t *Tracer) SetInstrs(id int, n uint64) {
	if t != nil {
		t.spans[id].Instrs = n
	}
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// Dump writes every span as JSON to path.
func (t *Tracer) Dump(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns every span's self time: its duration minus the time its
// children cover. Children never overlap — one goroutine drives the run.
func selfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// conservationEps is the share of a unit's wall time its top-level spans may
// leave unaccounted: the benchmark's own loop bookkeeping between calls.
const conservationEps = 0.01

// checkConservation verifies, for every unit root, that its direct children
// sum to its duration within conservationEps, in the manner of the cycle
// profiler's conservation check. It returns the largest gap seen, as a share
// of the unit's wall time.
func checkConservation(spans []Span) (float64, error) {
	covered := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Parent < 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var worst float64
	for i, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		wall := s.End - s.Start
		gap := wall - covered[i]
		if gap < 0 || wall <= 0 {
			return 0, fmt.Errorf("unit %d: top-level spans cover %d ns of a %d ns unit", s.Unit, covered[i], wall)
		}
		share := float64(gap) / float64(wall)
		if share > conservationEps {
			return share, fmt.Errorf("unit %d: top-level spans leave %.2f%% of %v unaccounted (epsilon %.0f%%)",
				s.Unit, 100*share, time.Duration(wall), 100*conservationEps)
		}
		worst = max(worst, share)
	}
	return worst, nil
}
