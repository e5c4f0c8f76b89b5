package main

// spanAgg sums one span name's spans within one unit.
type spanAgg struct {
	n      int
	dur    int64 // ns, whole spans
	alloc  uint64
	instrs uint64
	self   int64 // ns, self time of the spans that carry Instrs
}

// aggregate folds spans by unit and name.
func aggregate(spans []Span) map[int]map[string]*spanAgg {
	self := selfTimes(spans)
	out := make(map[int]map[string]*spanAgg)
	for i, s := range spans {
		byName := out[s.Unit]
		if byName == nil {
			byName = make(map[string]*spanAgg)
			out[s.Unit] = byName
		}
		a := byName[s.Name]
		if a == nil {
			a = &spanAgg{}
			byName[s.Name] = a
		}
		a.n++
		a.dur += s.End - s.Start
		a.alloc += s.Alloc
		if s.Instrs > 0 {
			a.instrs += s.Instrs
			a.self += self[i]
		}
	}
	return out
}

// perUnitMedian applies f to every unit's aggregate of name and returns the
// median over units that ran such spans; 0 when none did (the workload does
// not exercise that layer).
func perUnitMedian(aggs map[int]map[string]*spanAgg, name string, f func(*spanAgg) float64) float64 {
	var xs []float64
	for _, byName := range aggs {
		if a := byName[name]; a != nil && a.n > 0 {
			xs = append(xs, f(a))
		}
	}
	return median(xs)
}

func meanMs(a *spanAgg) float64 { return float64(a.dur) / float64(a.n) / 1e6 }
func meanUs(a *spanAgg) float64 { return float64(a.dur) / float64(a.n) / 1e3 }

// layerMetrics computes the per-layer metrics of a traced run: host time of
// each layer's calls (mean per call within a unit, median over traced
// units), the exact counts of a traced unit, and the tracing overhead.
func layerMetrics(r *runResult) map[string]metric {
	spans := r.tracer.Spans()
	aggs := aggregate(spans)
	m := map[string]metric{}
	span := func(metricName, spanName, unitName string, f func(*spanAgg) float64) {
		m[metricName] = metric{perUnitMedian(aggs, spanName, f), unitName}
	}
	span("core.build_ms", "core.build", "ms", meanMs)
	span("kernel.boot_ms", "kernel.boot", "ms", meanMs)
	span("go.alloc_mb", "kernel.boot", "MiB", func(a *spanAgg) float64 {
		return float64(a.alloc) / float64(a.n) / (1 << 20)
	})
	span("fuzz.progen_us", "fuzz.progen", "us", meanUs)
	span("fuzz.exec_us.clean", "fuzz.exec.clean", "us", meanUs)
	span("fuzz.exec_us.audited", "fuzz.exec.audited", "us", meanUs)
	span("fuzz.fold_us", "fuzz.fold", "us", meanUs)
	span("bench.op_us", "bench.op", "us", meanUs)
	span("bench.txn_us", "bench.txn", "us", meanUs)
	span("bench.warm_ms", "bench.warm", "ms", meanMs)

	// Host time per emulated instruction, over every span that retired
	// instructions (campaign execs, sweep and steady ops and transactions).
	var perInstr []float64
	for _, byName := range aggs {
		var self int64
		var instrs uint64
		for _, a := range byName {
			self += a.self
			instrs += a.instrs
		}
		if instrs > 0 {
			perInstr = append(perInstr, float64(self)/float64(instrs))
		}
	}
	m["cpu.host_ns_per_instr"] = metric{median(perInstr), "ns"}

	c := r.traced[0].counts
	for i, name := range counterNames {
		m[name] = metric{float64(c[i]), "count"}
	}
	share := 0.0
	if c[cInstrs] > 0 {
		share = float64(c[cBlockInstrs]) / float64(c[cInstrs])
	}
	m["block_engine.instr_share"] = metric{share, "ratio"}
	m["go.mallocs"] = metric{median(r.mallocs), "count"}

	var plain, traced []float64
	for _, u := range r.plain {
		plain = append(plain, u.wall.Seconds())
	}
	for _, u := range r.traced {
		traced = append(traced, u.wall.Seconds())
	}
	// Traced over untraced ops_per_s: 1 means tracing costs nothing.
	m["trace.ops_ratio"] = metric{median(plain) / median(traced), "ratio"}
	gap, _ := checkConservation(spans)
	m["trace.gap_pct"] = metric{100 * gap, "%"}
	return m
}
