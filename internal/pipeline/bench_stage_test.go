package pipeline

// Steady-state cycle-loop benchmarks and the zero-allocation gates the
// performance work is held to. One benchmark op is one simulated cycle on a
// warmed pipeline, so the standard ns/op and allocs/op columns read
// directly as ns/simulated-cycle and allocs/cycle; sim-insts/s is reported
// alongside from the instructions retired during the measured window.

import (
	"testing"
	"time"

	"regcache/internal/core"
	"regcache/internal/obs"
	"regcache/internal/prog"
)

// benchConfigs returns the scheme configurations the cycle-loop benchmarks
// and allocation gates sweep: each register-storage kind exercises a
// different set of hot paths (fill requests only exist behind a cache, the
// two-level file ticks its own copy engine, the oracle consults the
// pre-pass table at rename, a ported backing file arbitrates its read
// queue, and four contexts share the window through round-robin fetch and
// retire).
func benchConfigs() map[string]Config {
	cache := DefaultConfig()

	mono := DefaultConfig()
	mono.Scheme = SchemeMonolithic

	two := DefaultConfig()
	two.Scheme = SchemeTwoLevel

	oracle := DefaultConfig()
	oracle.OracleUses = true

	lru := DefaultConfig()
	lru.CacheCfg.Insert = core.InsertAlways
	lru.CacheCfg.Replace = core.ReplaceLRU
	lru.CacheCfg.Index = core.IndexRoundRobin

	port := DefaultConfig()
	port.ReadPorts = 2

	t4 := DefaultConfig()
	t4.Threads = 4

	return map[string]Config{
		"use-cache": cache,
		"lru-cache": lru,
		"mono":      mono,
		"twolevel":  two,
		"oracle":    oracle,
		"port":      port,
		"use-t4":    t4,
	}
}

// newBenchPipeline builds a pipeline on the given benchmark: one context
// for Threads <= 1, otherwise one per context, each running the
// benchmark's context-salted stream as the simulator's workload layer
// derives it.
func newBenchPipeline(tb testing.TB, cfg Config, bench string) *Pipeline {
	tb.Helper()
	prof, ok := prog.ProfileByName(bench)
	if !ok {
		tb.Fatalf("unknown benchmark %q", bench)
	}
	if cfg.Threads <= 1 {
		return New(cfg, prog.MustGenerate(prof))
	}
	progs := make([]*prog.Program, cfg.Threads)
	for t := range progs {
		progs[t] = prog.MustGenerate(prog.ThreadProfile(prof, t))
	}
	return NewMulti(cfg, progs)
}

// warmPipeline builds a pipeline on the given benchmark and runs it past
// the transient: pools populated, wheel buckets at their steady capacity,
// caches and predictors warm.
func warmPipeline(tb testing.TB, cfg Config, bench string, warmInsts uint64) *Pipeline {
	tb.Helper()
	pl := newBenchPipeline(tb, cfg, bench)
	pl.Run(warmInsts)
	return pl
}

// BenchmarkCycleSteadyState measures the warmed cycle loop per scheme.
// ns/op is ns per simulated cycle and allocs/op is allocations per cycle
// (the gate below pins it to zero).
func BenchmarkCycleSteadyState(b *testing.B) {
	for name, cfg := range benchConfigs() {
		b.Run(name, func(b *testing.B) {
			pl := warmPipeline(b, cfg, "gzip", 10_000)
			startRetired := pl.Stats.Retired
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl.Cycle()
			}
			b.StopTimer()
			retired := pl.Stats.Retired - startRetired
			b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "sim-insts/s")
		})
	}
}

// BenchmarkStageBreakdown attributes cycle time to the individual pipeline
// stages: it advances the machine through the same stage table Cycle runs,
// bracketing each stage with a timestamp, and reports per-stage ns/cycle
// metrics. Stage cost shares guide optimization; the absolute per-stage
// numbers carry the timestamping overhead (~tens of ns), which cancels out
// of comparisons across runs.
func BenchmarkStageBreakdown(b *testing.B) {
	pl := warmPipeline(b, DefaultConfig(), "gzip", 10_000)
	var spent [len(cycleStages)]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.beginCycle()
		t0 := time.Now()
		for j := range cycleStages {
			cycleStages[j].run(pl)
			t1 := time.Now()
			spent[j] += t1.Sub(t0)
			t0 = t1
		}
		pl.Stats.Cycles = pl.now
	}
	b.StopTimer()
	for j, st := range cycleStages {
		b.ReportMetric(float64(spent[j].Nanoseconds())/float64(b.N), st.name+"-ns/cycle")
	}
}

// TestCycleLoopZeroAlloc is the allocation gate for the steady-state cycle
// loop: after warmup, batches of cycles must allocate nothing, for every
// scheme. A failure here means an optimization regressed the pooling or
// scratch-reuse discipline (see DESIGN.md, performance engineering).
func TestCycleLoopZeroAlloc(t *testing.T) {
	for name, cfg := range benchConfigs() {
		t.Run(name, func(t *testing.T) {
			pl := warmPipeline(t, cfg, "gzip", 40_000)
			// Average over batches of cycles: a single cycle can legally hit
			// a rare amortized growth path (undo-log compaction keeps
			// capacity, but a deeper-than-ever speculative excursion may
			// still grow a buffer once), while the per-cycle average over
			// thousands of cycles must be exactly zero.
			const batch = 2000
			allocs := testing.AllocsPerRun(5, func() {
				for i := 0; i < batch; i++ {
					pl.Cycle()
				}
			})
			if allocs > 0 {
				t.Errorf("%s: steady-state cycle loop allocates %.2f objects per %d cycles, want 0", name, allocs, batch)
			}
		})
	}
}

// TestCycleLoopZeroAllocSpans extends the allocation gate to the
// tracing-disabled span hooks: RunWindowSpans with a nil *Span brackets
// the cycle loop with StartChild/SetInt/End calls that must all no-op
// without allocating. This is the exact sequence the interval executor
// runs per window when no request-scoped trace is active.
func TestCycleLoopZeroAllocSpans(t *testing.T) {
	pl := warmPipeline(t, DefaultConfig(), "gzip", 40_000)
	var sp *obs.Span // the disabled path
	const batch = 2000
	allocs := testing.AllocsPerRun(5, func() {
		wsp := sp.StartChild("warmup")
		for i := 0; i < batch/2; i++ {
			pl.Cycle()
		}
		if wsp != nil {
			wsp.SetInt("retired", int64(pl.Stats.Retired))
			wsp.End()
		}
		msp := sp.StartChild("measured")
		for i := 0; i < batch/2; i++ {
			pl.Cycle()
		}
		if msp != nil {
			msp.SetInt("retired", int64(pl.Stats.Retired))
			msp.End()
		}
	})
	if allocs > 0 {
		t.Errorf("nil-span window hooks allocate %.2f objects per %d cycles, want 0", allocs, batch)
	}
}
