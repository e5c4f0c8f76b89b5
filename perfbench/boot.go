package main

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/kernel"
)

// freshBuildCache makes the next image build cold: every unit's set-up pays
// for the builds a fresh process would.
func freshBuildCache() *core.ImageCache {
	c := core.NewImageCache(nil)
	kernel.SetBuildCache(c)
	return c
}

// corpusID is the program ID under which kernel.Boot(cfg, WithCache())
// caches images of the kernel corpus.
const corpusID = "kernel-corpus"

// corpus is the kernel corpus program, built once per process, as the
// kernel's own shared corpus is (BuildCorpus is deterministic).
var corpus = sync.OnceValues(kernel.BuildCorpus)

// buildImages builds the image of every config into the process-wide build
// cache, each in a core.build span, under the key kernel.Boot(cfg,
// WithCache()) looks up. The boots that follow then hit the cache, so a
// kernel.boot span times the boot alone. It returns the cache's build count
// afterwards, which the caller can check later to prove that no boot missed.
func buildImages(tr *Tracer, cfgs []core.Config) (uint64, error) {
	prog, err := corpus()
	if err != nil {
		return 0, err
	}
	for _, cfg := range cfgs {
		s := tr.Begin("core.build", -1)
		_, err := kernel.BuildCache().Build(prog, corpusID, cfg)
		tr.End(s)
		if err != nil {
			return 0, fmt.Errorf("build %s: %w", cfg.Name(), err)
		}
	}
	return kernel.BuildCache().Stats().Builds, nil
}

// checkBuilds reports boots that compiled an image again instead of taking
// the one buildImages prebuilt.
func checkBuilds(cache *core.ImageCache, want uint64) error {
	if got := cache.Stats().Builds; got != want {
		return fmt.Errorf("boots missed the prebuilt images: %d builds, want %d", got, want)
	}
	return nil
}

// kernelClock is a kernel's emulated counters at one moment.
type kernelClock struct{ Instrs, Cycles uint64 }

func clockOf(k *kernel.Kernel) kernelClock { return kernelClock{k.CPU.Instrs, k.CPU.Cycles} }

func (a kernelClock) since(b kernelClock) kernelClock {
	return kernelClock{a.Instrs - b.Instrs, a.Cycles - b.Cycles}
}

func (a kernelClock) plus(b kernelClock) kernelClock {
	return kernelClock{a.Instrs + b.Instrs, a.Cycles + b.Cycles}
}
