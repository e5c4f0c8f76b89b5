// Command perfbench is the repository's end-to-end benchmark. It drives the
// three workloads users pay for — a krxfuzz campaign, a krxbench Table 1
// sweep counted from boot, and long Table 2 syscall loops on booted
// kernels — through the program's public functions, from one goroutine,
// and times every layer from outside by timing its calls.
//
//	perfbench -workload campaign|sweep|steady -seed N -seconds S -trace 0|1
//
// A run repeats a unit of work, on inputs derived from -seed, until
// -seconds have passed (after one untimed warm-up unit) and reports medians
// over units. With -trace 0 it prints the end-to-end metrics; with -trace 1
// it alternates untraced and traced units and prints the per-layer metrics,
// including the tracing overhead. Every unit's outputs are checked; the last line of standard
// output is one JSON object. README.md records why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: campaign, sweep or steady")
	seed := flag.Int64("seed", 1, "input seed (fuzz seed, or kernel layout seed of every config)")
	seconds := flag.Float64("seconds", 10, "how long to repeat units after the warm-up unit")
	trace := flag.Int("trace", 0, "1 = alternate untraced and traced units and print per-layer metrics")
	out := flag.String("out", "", "directory for the span dump of a traced run (empty = no dump)")
	verbose := flag.Bool("v", false, "print every unit's timings to standard error")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want campaign, sweep or steady)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	p := defaultParams(*seed)
	res, err := measure(w, p, *seconds, *trace == 1, *verbose)
	if err != nil {
		return err
	}
	if res.tracer != nil && *out != "" {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := res.tracer.Dump(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(res.tracer.Spans()), path)
	}
	for _, msg := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	b, err := json.Marshal(res.result())
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// params sizes one unit of every workload.
type params struct {
	seed      int64
	campaigns int    // campaign: campaigns per unit
	iters     int    // campaign: iterations per campaign
	budget    uint64 // campaign: per-syscall watchdog budget, in instructions
	reps      int    // sweep and steady: timed runs of each op per pass
	passes    int    // steady: passes over every op per column
}

// defaultParams are the sizes the benchmark measures at: each unit is about
// a second of work, so a 30-second run reports medians over 20 or more units.
// README.md gives the reasons for the campaign sizes and budget.
func defaultParams(seed int64) params {
	return params{seed: seed, campaigns: 6, iters: 256, budget: 16384, reps: 10, passes: 6}
}

// workload runs one unit. tr is nil for an untraced unit.
type workload func(p params, tr *Tracer) (unit, error)

var workloads = map[string]workload{
	"campaign": campaignUnit,
	"sweep":    sweepUnit,
	"steady":   steadyUnit,
}

// unit is what one unit of work measured and produced.
type unit struct {
	setup  time.Duration // cold set-up: image build plus boot, before the first op
	wall   time.Duration // the work itself
	ops    int           // ops attempted
	failed int           // ops that failed
	// out fingerprints the unit's outputs (the campaign reports, or emulated
	// cycles per (config, op)); units of the same inputs must match.
	out string
	// counts are exact counters folded across every kernel of the unit.
	counts counts
	errs   []string // why ops failed
}

// setOf numbers the inputs of unit i: units 0 to 2 share set 0; after that
// an untraced run takes a new set per unit and a traced run a new set per
// untraced/traced pair.
func setOf(i int, trace bool) int {
	switch {
	case i <= 2:
		return 0
	case trace:
		return (i - 1) / 2
	default:
		return i - 2
	}
}

// unitSeed derives the input seed of a set from the run's seed: a run
// covers fewer than 1000 sets, so runs of distinct seeds never share
// inputs.
func unitSeed(seed int64, set int) int64 { return seed*1000 + int64(set) }

// minUnits is the fewest timed units a run reports from, per kind, even
// when that takes longer than -seconds.
const minUnits = 3

// runResult gathers a whole run.
type runResult struct {
	plain    []unit // untraced, timed
	traced   []unit
	mallocs  []float64 // Go mallocs per untraced unit
	attempt  int
	failed   int
	problems []string
	tracer   *Tracer
}

// measure runs one untimed warm-up unit, then units until seconds have
// passed. The warm-up and the first two timed units run the same inputs,
// and so does each untraced/traced pair of a traced run: units of the same
// inputs must produce the same outputs and counts. Every other unit takes
// fresh inputs (see setOf), so a run averages over many inputs instead of
// timing one input many times.
func measure(w workload, p params, seconds float64, trace, verbose bool) (*runResult, error) {
	res := &runResult{}
	if trace {
		res.tracer = NewTracer()
	}
	type kind struct {
		set    int
		traced bool
	}
	outs := map[int]string{}
	refs := map[kind]counts{}
	var ms runtime.MemStats
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(res.plain) >= minUnits && (!trace || len(res.traced) >= minUnits)
		if i > 2 && (!trace || i%2 == 1) && enough && time.Since(start).Seconds() >= seconds {
			break
		}
		set := setOf(i, trace)
		traced := trace && i%2 == 0 && i > 0
		up := p
		up.seed = unitSeed(p.seed, set)
		// Every unit starts from a collected heap, so no unit pays for the
		// garbage of the one before it. The memory stays mapped: returning
		// it to the OS (debug.FreeOSMemory) makes every boot fault its frames
		// in again, and measured set-up about 15% slower and noisier.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		var tr *Tracer
		root := -1
		if traced {
			tr = res.tracer
			root = tr.BeginUnit("unit", i)
		}
		u, err := w(up, tr)
		if err != nil {
			return nil, err
		}
		tr.End(root)
		runtime.ReadMemStats(&ms)

		if verbose {
			fmt.Fprintf(os.Stderr, "unit %d seed=%d traced=%t at=%.1fs setup=%.4fs wall=%.4fs ops/s=%.1f\n",
				i, up.seed, traced, time.Since(start).Seconds(), u.setup.Seconds(), u.wall.Seconds(), float64(u.ops)/u.wall.Seconds())
		}
		res.attempt += u.ops
		res.failed += u.failed
		res.problems = append(res.problems, u.errs...)
		// Outputs must match across the units of a set and both drives;
		// counts only within a kind, because a campaign's untraced drive
		// cannot see the instructions its restores rewind.
		if out, ok := outs[set]; !ok {
			outs[set] = u.out
		} else if u.out != out {
			res.problems = append(res.problems, fmt.Sprintf("unit %d (traced=%t): outputs differ from the first unit of its inputs", i, traced))
		}
		if ref, ok := refs[kind{set, traced}]; !ok {
			refs[kind{set, traced}] = u.counts
		} else if u.counts != ref {
			res.problems = append(res.problems, fmt.Sprintf("unit %d (traced=%t): exact counts differ:\n  %v\n  %v", i, traced, u.counts, ref))
		}
		switch {
		case i == 0:
			// Warm-up: checked above, not timed.
		case traced:
			res.traced = append(res.traced, u)
		default:
			res.plain = append(res.plain, u)
			res.mallocs = append(res.mallocs, float64(ms.Mallocs-mallocs))
		}
	}
	if trace {
		if _, err := checkConservation(res.tracer.Spans()); err != nil {
			res.problems = append(res.problems, "span conservation: "+err.Error())
		}
	}
	return res, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the last line of output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *runResult) result() result {
	out := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempt,
		Failed:    r.failed,
	}
	if r.tracer != nil {
		out.Metrics = layerMetrics(r)
	} else {
		out.Metrics = endToEnd(r.plain)
	}
	return out
}

// endToEnd computes the metrics a user of the commands sees.
func endToEnd(units []unit) map[string]metric {
	var setups, walls []float64
	for _, u := range units {
		setups = append(setups, u.setup.Seconds())
		walls = append(walls, u.wall.Seconds())
	}
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"ops_per_s":   {float64(units[0].ops) / median(walls), "1/s"},
		"peak_rss_mb": {peakRSSMB(), "MiB"},
	}
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
