// Command krxfuzz runs the syscall fuzzer with fault injection against the
// simulated kernel: seeded program generation, corpus-guided mutation,
// deterministic fault injection, crash triage with deduplication, and
// reproducer minimization. The same -seed always yields a byte-identical
// report.
//
// Two schedulers are available. The default runs the in-process fuzz.Fuzzer.
// -serve runs the same campaign through the fault-tolerant fuzzd service: a
// manager granting lease-based iteration batches to a worker fleet, with
// heartbeat renewal, expiry reclamation, bounded retries, dead-letter
// quarantine, and worker respawn — all invisible in the report, which stays
// byte-identical to the in-process run. -chaos injects a replayable fault
// schedule into the fleet to demonstrate exactly that.
//
// SIGINT/SIGTERM cancel the campaign gracefully under either scheduler: the
// in-flight batch drains and the report of every completed iteration is
// emitted with "partial": true.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/diversify"
	"repro/internal/fuzz"
	"repro/internal/fuzzd"
	"repro/internal/fuzzd/chaos"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sfi"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "krxfuzz:", err)
		os.Exit(1)
	}
}

func run() error {
	iters := flag.Int("iters", 1000, "programs to execute")
	seed := flag.Int64("seed", 42, "master seed (generation, mutation, injection)")
	noInject := flag.Bool("no-inject", false, "disable fault injection")
	vanilla := flag.Bool("vanilla", false, "fuzz the unprotected kernel instead of SFI+X")
	budget := flag.Uint64("budget", 0, "per-syscall instruction watchdog budget (0 = default)")
	workers := flag.Int("workers", 1, "parallel execution workers (report is byte-identical for any count)")
	forkMode := flag.Bool("fork", false, "stand workers up as copy-on-write forks of one golden kernel instead of booting each (report is byte-identical either way)")
	jsonOut := flag.Bool("json", false, "emit the report as machine-readable JSON (schema_version marks the format)")
	traceOut := flag.String("trace", "", "record the campaign event stream (byte-identical for any -workers count); write Chrome trace-event JSON to this file")
	stats := flag.Bool("stats", false, "print the observability metric registry after the campaign (cpu.*, decode_cache.*, block_engine.* and dtlb.* sum over all workers; cpu.* counts every iteration and minimization replay; -serve prints the service registry instead)")
	serve := flag.Bool("serve", false, "run through the fault-tolerant fuzzd manager/worker service instead of the in-process scheduler")
	leaseTimeout := flag.Duration("lease-timeout", time.Second, "serve: lease deadline; a lease unrenewed for this long is reclaimed and reassigned")
	leaseIters := flag.Int("lease-iters", 16, "serve: iterations per lease grant")
	retries := flag.Int("retries", 3, "serve: regrants of a lost lease before its range is quarantined to the manager")
	chaosSpec := flag.String("chaos", "", "serve: worker fault schedule (kill-one, expire-third, stall-recover, seeded:<seed>); the report must not change")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store directory: kernel images are reused across invocations; a warm run performs zero link builds")
	cacheQuota := flag.String("cache-quota", "1G", "artifact store byte quota, LRU-evicted (accepts K/M/G suffixes; 0 = unlimited)")
	corpusDir := flag.String("corpus-dir", "", "campaign checkpoint store directory: the corpus, coverage, and crash ledger persist at batch boundaries and the campaign resumes from its last checkpoint (incompatible with -trace)")
	cpuProf := flag.String("cpuprofile", "", "write a host pprof CPU profile of the campaign to this file")
	memProf := flag.String("memprofile", "", "write a host pprof heap profile (collected after the campaign) to this file")
	flag.Parse()

	stopProf, err := obs.StartPprof(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	// Graceful shutdown: first SIGINT/SIGTERM cancels the campaign; the
	// in-flight batch drains and a partial report is emitted. A second
	// signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := core.Config{
		XOM: core.XOMSFI, SFILevel: sfi.O3,
		Diversify: true, RAProt: diversify.RAEncrypt,
		Seed:           *seed,
		WatchdogBudget: *budget,
	}
	if *vanilla {
		cfg = core.Config{Seed: *seed, WatchdogBudget: *budget}
	}
	opts := fuzz.Options{
		Iters: *iters, Seed: *seed, Config: cfg, Workers: *workers,
		Fork:  *forkMode,
		Trace: *traceOut != "",
	}
	if !*noInject {
		plan := inject.DefaultPlan(*seed)
		opts.Plan = &plan
	}

	// Persistent artifact store: every Boot(WithCache) in this process —
	// in-process workers and serve-mode fleets alike — builds through it, so
	// a populated store serves the image with zero link builds.
	var artifacts store.Store
	if *cacheDir != "" {
		var err error
		artifacts, err = store.Open(*cacheDir, *cacheQuota)
		if err != nil {
			return err
		}
		defer artifacts.Close()
		kernel.SetBuildCache(core.NewImageCache(artifacts))
	}
	if *corpusDir != "" {
		cs, err := store.Open(*corpusDir, "0")
		if err != nil {
			return err
		}
		defer cs.Close()
		opts.Checkpoint = cs
	}

	if *serve {
		return runServe(ctx, opts, serveFlags{
			leaseTimeout: *leaseTimeout,
			leaseIters:   *leaseIters,
			retries:      *retries,
			chaosSpec:    *chaosSpec,
			jsonOut:      *jsonOut,
			traceOut:     *traceOut,
			stats:        *stats,
		})
	}

	f, err := fuzz.New(opts)
	if err != nil {
		return err
	}
	rep, err := f.RunContext(ctx)
	if err != nil {
		return err
	}
	if err := emitReport(rep, *jsonOut); err != nil {
		return err
	}
	if *traceOut != "" {
		b, err := obs.ChromeTrace(rep.Trace)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "krxfuzz: wrote %d trace events to %s\n", len(rep.Trace), *traceOut)
	}
	if *stats {
		reg, err := statsRegistry(f, opts.Fork)
		if err != nil {
			return err
		}
		fmt.Print(reg.Format())
	}
	return nil
}

// statsRegistry builds the -stats registry over the campaign's workers
// (worker order). Every engine gauge sums over all workers. cpu.* is the
// work the executors retired (fuzz.Fuzzer.Retired): CPU.Instrs/Cycles
// themselves are rewound by every iteration's snapshot restore.
func statsRegistry(f *fuzz.Fuzzer, fork bool) (*obs.Registry, error) {
	ks, err := f.Kernels()
	if err != nil {
		return nil, err
	}
	cpus := make([]*cpu.CPU, len(ks))
	spaces := make([]*mem.AddressSpace, len(ks))
	for i, k := range ks {
		cpus[i], spaces[i] = k.CPU, k.CPU.AS
	}
	reg := obs.NewRegistry()
	reg.Gauge("cpu.instrs", func() uint64 { n, _ := f.Retired(); return n })
	reg.Gauge("cpu.cycles", func() uint64 { _, n := f.Retired(); return n })
	obs.RegisterDecodeCache(reg, "decode_cache", cpus...)
	obs.RegisterBlockEngine(reg, "block_engine", cpus...)
	obs.RegisterDataTLB(reg, "dtlb", spaces...)
	obs.RegisterStore(reg, "store", kernel.BuildCache())
	if fork {
		// The first worker is the golden kernel every other worker forked
		// from; its space carries the frame-sharing counters.
		obs.RegisterFork(reg, "fork", kernel.Forks, func() *mem.AddressSpace { return ks[0].CPU.AS })
	}
	return reg, nil
}

type serveFlags struct {
	leaseTimeout time.Duration
	leaseIters   int
	retries      int
	chaosSpec    string
	jsonOut      bool
	traceOut     string
	stats        bool
}

// runServe runs the campaign through the fuzzd service.
func runServe(ctx context.Context, opts fuzz.Options, sf serveFlags) error {
	fn, err := chaos.Parse(sf.chaosSpec)
	if err != nil {
		return err
	}
	m, err := fuzzd.New(fuzzd.Options{
		Fuzz:         opts,
		LeaseIters:   sf.leaseIters,
		LeaseTimeout: sf.leaseTimeout,
		MaxRetries:   sf.retries,
		Chaos:        fn,
	})
	if err != nil {
		return err
	}
	rep, err := m.Run(ctx)
	if err != nil {
		return err
	}
	if err := emitReport(rep, sf.jsonOut); err != nil {
		return err
	}
	if sf.traceOut != "" {
		// Two tracks: the deterministic campaign stream (emulated-cycle
		// timestamps) and the service-plane lease/death/respawn stream (host
		// microseconds since manager start).
		b, err := obs.ChromeTraceTracks(
			obs.Track{Name: "campaign", Pid: 1, Events: rep.Trace},
			obs.Track{Name: "fuzzd", Pid: 2, Events: m.Tracer().Events()},
		)
		if err != nil {
			return err
		}
		if err := os.WriteFile(sf.traceOut, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "krxfuzz: wrote %d campaign + %d service trace events to %s\n",
			len(rep.Trace), m.Tracer().Len(), sf.traceOut)
	}
	if sf.stats {
		obs.RegisterStore(m.Registry(), "store", kernel.BuildCache())
		fmt.Print(m.Registry().Format())
	}
	return nil
}

func emitReport(rep *fuzz.Report, jsonOut bool) error {
	if jsonOut {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Print(rep.String())
	return nil
}
