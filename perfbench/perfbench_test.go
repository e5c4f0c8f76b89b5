package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// tinyParams shrinks every unit to a smoke size: one short campaign, one
// timed run per op, one steady pass.
func tinyParams() params {
	p := defaultParams(3)
	p.campaigns, p.iters, p.reps, p.passes = 1, 2*64, 1, 1
	return p
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, kind string, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for name, m := range got {
		names = append(names, name)
		if u, ok := want[name]; !ok {
			t.Errorf("%s metric %q is not declared in BENCHMARK.json", kind, name)
		} else if u != m.Unit {
			t.Errorf("%s metric %q has unit %q, BENCHMARK.json says %q", kind, name, m.Unit, u)
		}
	}
	if len(got) != len(want) {
		sort.Strings(names)
		t.Errorf("%s metrics %v, BENCHMARK.json declares %d", kind, names, len(want))
	}
}

// TestWorkloadsSmoke runs every workload traced at a tiny size: the output
// checks (identical outputs across units and across the untraced and traced
// drives, identical exact counts, no failed op) and span conservation must
// pass, and both metric sets must carry exactly the declared names and
// units.
func TestWorkloadsSmoke(t *testing.T) {
	endToEndNames, layerNames := declared(t)
	for _, name := range []string{"campaign", "sweep", "steady"} {
		t.Run(name, func(t *testing.T) {
			res, err := measure(workloads[name], tinyParams(), 0, true, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Error(p)
			}
			r := res.result()
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("correct=%t failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
			}
			if _, err := checkConservation(res.tracer.Spans()); err != nil {
				t.Error(err)
			}
			e2e := endToEnd(res.plain)
			checkMetrics(t, "end-to-end", e2e, endToEndNames)
			for name, m := range e2e {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}
			layers := layerMetrics(res)
			checkMetrics(t, "per-layer", layers, layerNames)
			if layers["cpu.instrs"].Value == 0 || layers["kernel.boot_ms"].Value == 0 || layers["core.build_ms"].Value == 0 {
				t.Errorf("per-layer metrics missing work: %v", layers)
			}
			switch name {
			case "campaign":
				// Today's state: probes keep every campaign off the block engine.
				if v := layers["block_engine.dispatches"].Value; v != 0 {
					t.Errorf("campaign block_engine.dispatches = %v, want 0", v)
				}
				if layers["fuzz.exec_us.clean"].Value == 0 || layers["fuzz.fold_us"].Value == 0 {
					t.Errorf("campaign layers not timed: %v", layers)
				}
			case "steady":
				if v := layers["block_engine.instr_share"].Value; v < 0.95 {
					t.Errorf("steady block_engine.instr_share = %v, want about 1", v)
				}
			}
		})
	}
}

// TestSweepReproducesTable1 checks that the sequential, boot-counted sweep
// measures exactly the table bench.RunTable1 measures with its concurrent
// columns.
func TestSweepReproducesTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 36 kernels")
	}
	const reps = 1
	cfgs := append([]core.Config{core.Vanilla}, bench.Table1Configs()...)
	u, cyc, err := runSweep(cfgs, reps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.failed != 0 {
		t.Fatal(u.errs)
	}
	want, err := bench.RunTable1(reps)
	if err != nil {
		t.Fatal(err)
	}
	got := table1(cyc, cfgs, reps)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep table differs from bench.RunTable1:\n%s\nwant:\n%s", got.Format(), want.Format())
	}
}

// table1 folds a sweep's cycles into the Table 1 overhead table the way
// bench.RunTable1 does.
func table1(c *opCycles, cfgs []core.Config, reps int) *bench.Table {
	t := &bench.Table{Title: "Table 1: LMBench micro-benchmark overhead (%)"}
	ops := bench.MicroOps()
	for _, op := range ops {
		t.RowNames = append(t.RowNames, op.Name)
		t.RowKinds = append(t.RowKinds, op.Kind)
	}
	cols := make([][]float64, len(cfgs))
	for ci := range cfgs {
		cols[ci] = make([]float64, len(ops))
		for oi := range ops {
			cols[ci][oi] = float64(c.timed[ci][oi]) / float64(reps)
		}
	}
	base := cols[0]
	t.Baseline = base
	t.Overhead = make([][]float64, len(ops))
	for ri := range t.Overhead {
		t.Overhead[ri] = make([]float64, len(cfgs)-1)
		for ci := range cfgs[1:] {
			t.Overhead[ri][ci] = 100 * (cols[ci+1][ri] - base[ri]) / base[ri]
		}
	}
	for _, cfg := range cfgs[1:] {
		t.Configs = append(t.Configs, cfg.Name())
	}
	return t
}

// TestConservationDetectsGap checks the conservation check itself: a unit
// whose top-level spans leave more than the epsilon uncovered fails, and
// self time subtracts exactly the children.
func TestConservationDetectsGap(t *testing.T) {
	spans := []Span{
		{Name: "unit", Start: 0, End: 1000, Parent: -1},
		{Name: "setup", Start: 0, End: 400, Parent: 0},
		{Name: "core.build", Start: 100, End: 300, Parent: 1},
		{Name: "work", Start: 400, End: 995, Parent: 0},
	}
	if gap, err := checkConservation(spans); err != nil || gap != 0.005 {
		t.Errorf("0.5%% gap: got %v, %v; want 0.005, nil", gap, err)
	}
	if got, want := selfTimes(spans), []int64{5, 200, 200, 595}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	spans[3].End = 900
	if _, err := checkConservation(spans); err == nil {
		t.Error("a 10% gap passed the conservation check")
	}
}

// TestMinimizeWork checks how the kernel events of one Fold split into
// minimization executions: each starts at a Restore and ends at its last
// stamped event.
func TestMinimizeWork(t *testing.T) {
	tr := obs.NewTracer(16)
	base := kernelClock{100, 1000}
	tr.Now = func() (uint64, uint64) { return base.Instrs, base.Cycles }
	tr.Emit(obs.EvRestore, "restore", 0, 0)
	tr.Now = func() (uint64, uint64) { return 150, 1400 }
	tr.Emit(obs.EvSyscallExit, "x", 0, 0)
	tr.Now = func() (uint64, uint64) { return base.Instrs, base.Cycles }
	tr.Emit(obs.EvRestore, "restore", 0, 0)
	tr.Now = func() (uint64, uint64) { return 120, 1100 }
	tr.Emit(obs.EvTrap, "x", 0, 0)
	execs, work, err := minimizeWork(tr, base)
	if err != nil || execs != 2 || work != (kernelClock{70, 500}) {
		t.Errorf("got %d execs, %+v, %v; want 2, {70 500}, nil", execs, work, err)
	}
	if execs, _, _ := minimizeWork(obs.NewTracer(4), base); execs != 0 {
		t.Errorf("a fold without minimization counted %d execs", execs)
	}
}
