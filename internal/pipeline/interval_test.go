package pipeline

// Tests for the interval-parallel executor: the split arithmetic, the
// checkpoint capture pass, the K=1 bit-identity guarantee, determinism of
// the stitched K>1 results, and the zero-allocation gate on a pipeline
// resumed from a checkpoint.

import (
	"reflect"
	"testing"

	"regcache/internal/isa"
	"regcache/internal/memsys"
	"regcache/internal/prog"
)

func TestIntervalStarts(t *testing.T) {
	cases := []struct {
		total uint64
		k     int
		want  []uint64
	}{
		{100, 1, []uint64{0}},
		{100, 4, []uint64{0, 25, 50, 75}},
		{10, 3, []uint64{0, 4, 7}}, // remainder spread over the leading intervals
		{100, 0, []uint64{0}},      // k clamped up to 1
		{100, -5, []uint64{0}},
		{3, 8, []uint64{0, 1, 2}}, // k clamped down to total
	}
	for _, c := range cases {
		got := IntervalStarts(c.total, c.k)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("IntervalStarts(%d, %d) = %v, want %v", c.total, c.k, got, c.want)
		}
	}
	// Every split must partition [0, total): starts strictly increasing
	// from 0, implied interval sizes all >= 1.
	for _, k := range []int{1, 2, 3, 7, 16} {
		starts := IntervalStarts(1000, k)
		if starts[0] != 0 {
			t.Fatalf("k=%d: first start %d, want 0", k, starts[0])
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] <= starts[i-1] {
				t.Fatalf("k=%d: starts not increasing: %v", k, starts)
			}
		}
	}
}

func TestCapturePoints(t *testing.T) {
	starts := []uint64{0, 250, 500, 750}
	got := CapturePoints(starts, 100)
	want := []uint64{0, 150, 400, 650}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CapturePoints(%v, 100) = %v, want %v", starts, got, want)
	}
	// Warm-up longer than the first boundary clamps at program entry.
	got = CapturePoints([]uint64{0, 50, 500}, 100)
	want = []uint64{0, 0, 400}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clamped CapturePoints = %v, want %v", got, want)
	}
}

func TestCaptureCheckpointsAlignment(t *testing.T) {
	p := prog.MustGenerate(mustProfile(t, "gzip"))
	cks := CaptureCheckpoints(p, []uint64{0, 1_000, 5_000}, memsys.Config{})
	if len(cks) != 3 {
		t.Fatalf("%d checkpoints, want 3", len(cks))
	}
	if cks[0].Inst != 0 || cks[0].DefBase != 0 {
		t.Errorf("entry checkpoint at inst %d defs %d, want 0/0", cks[0].Inst, cks[0].DefBase)
	}
	for i, pt := range []uint64{0, 1_000, 5_000} {
		if cks[i].Inst != pt {
			t.Errorf("checkpoint %d at inst %d, want %d", i, cks[i].Inst, pt)
		}
	}
	if cks[2].DefBase <= cks[1].DefBase || cks[1].DefBase == 0 {
		t.Errorf("def bases not increasing: %d, %d", cks[1].DefBase, cks[2].DefBase)
	}
	// DefBase must count exactly the register-writing instructions the
	// oracle pre-pass counts: resuming the pre-pass from a checkpoint has
	// to land on the same def indices (the oracle-table alignment).
	var defs uint64
	prog.NewExec(p).Walk(5_000, func(in *isa.Inst, _ prog.Step) {
		if in.HasDest() {
			defs++
		}
	})
	if defs != cks[2].DefBase {
		t.Errorf("checkpoint def base %d, independent recount %d", cks[2].DefBase, defs)
	}
}

// TestRunIntervalsK1BitIdentical pins the guard mode: one interval with no
// warm-up must be the serial run, bit for bit, for every scheme kind.
func TestRunIntervalsK1BitIdentical(t *testing.T) {
	for name, cfg := range intervalConfigs() {
		t.Run(name, func(t *testing.T) {
			p := prog.MustGenerate(mustProfile(t, "gzip"))
			serial := New(cfg, p).Run(20_000)
			interval := RunIntervals(cfg, p, 20_000, IntervalOptions{K: 1})
			if !reflect.DeepEqual(serial, interval) {
				t.Errorf("K=1 interval run diverged from serial:\nserial:   %+v\ninterval: %+v", serial, interval)
			}
			if interval.Intervals != nil {
				t.Errorf("K=1 result carries IntervalStats %+v, want nil (bit-identity includes the schema)", interval.Intervals)
			}
		})
	}
}

// TestRunIntervalsDeterministic pins that a stitched K>1 run is a pure
// function of its inputs: two identical invocations (including freshly
// captured checkpoints) must agree exactly.
func TestRunIntervalsDeterministic(t *testing.T) {
	for name, cfg := range intervalConfigs() {
		t.Run(name, func(t *testing.T) {
			p := prog.MustGenerate(mustProfile(t, "gzip"))
			o := IntervalOptions{K: 4, Warmup: 2_000}
			a := RunIntervals(cfg, p, 20_000, o)
			b := RunIntervals(cfg, p, 20_000, o)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("repeated K=4 runs diverged:\na: %+v\nb: %+v", a, b)
			}
		})
	}
}

// TestRunIntervalsMergedInvariants checks the stitched result's structural
// guarantees: the architectural stream is complete (every instruction
// retired exactly once, modulo retire-width overshoot at window edges) and
// the interval metadata describes the run.
func TestRunIntervalsMergedInvariants(t *testing.T) {
	p := prog.MustGenerate(mustProfile(t, "gzip"))
	const total, k, warmup = 20_000, 4, 2_000
	r := RunIntervals(DefaultConfig(), p, total, IntervalOptions{K: k, Warmup: warmup})
	// Each window boundary (warm-up end and interval end) can overshoot
	// by at most retire width - 1 instructions in either direction of the
	// window sum.
	const slack = 8 * k
	if r.Stats.Retired < total-slack || r.Stats.Retired > total+slack {
		t.Errorf("merged Retired = %d, want within [%d, %d]", r.Stats.Retired, total-slack, total+slack)
	}
	iv := r.Intervals
	if iv == nil {
		t.Fatal("K>1 result has no IntervalStats")
	}
	if iv.K != k || len(iv.IntervalCycles) != k {
		t.Errorf("IntervalStats K=%d with %d cycle entries, want %d", iv.K, len(iv.IntervalCycles), k)
	}
	if iv.WarmupInsts != warmup {
		t.Errorf("WarmupInsts = %d, want %d", iv.WarmupInsts, warmup)
	}
	if iv.WarmupRetired == 0 || iv.WarmupCycles == 0 {
		t.Errorf("warm-up work not accounted: retired %d, cycles %d", iv.WarmupRetired, iv.WarmupCycles)
	}
	if s := iv.Skew(); s < 1 {
		t.Errorf("Skew() = %v, want >= 1", s)
	}
	if f := iv.WarmupFrac(); f <= 0 || f >= 1 {
		t.Errorf("WarmupFrac() = %v, want in (0, 1)", f)
	}
	var cyc uint64
	for _, c := range iv.IntervalCycles {
		cyc += c
	}
	if cyc != r.Stats.Cycles {
		t.Errorf("per-interval cycles sum to %d, merged Cycles = %d", cyc, r.Stats.Cycles)
	}
	if r.IPC <= 0 {
		t.Errorf("merged IPC = %v, want > 0", r.IPC)
	}
}

// TestStatsSubAddRoundTrip sanity-checks the reflection-based window
// arithmetic: (a + b) - b == a over every counter field.
func TestStatsSubAddRoundTrip(t *testing.T) {
	p := prog.MustGenerate(mustProfile(t, "gzip"))
	pl := New(DefaultConfig(), p)
	pl.Run(5_000)
	a := pl.Stats
	pl.Run(10_000) // continues; Stats now a+b
	b := pl.Stats.Sub(a)
	if got := b.Add(a); !reflect.DeepEqual(got, pl.Stats) {
		t.Errorf("Sub/Add round trip diverged:\ngot:  %+v\nwant: %+v", got, pl.Stats)
	}
	if b.Retired == 0 || b.Retired >= pl.Stats.Retired {
		t.Errorf("window Retired = %d, want in (0, %d)", b.Retired, pl.Stats.Retired)
	}
}

// TestCycleLoopZeroAllocInterval extends the steady-state allocation gate
// to pipelines resumed from a checkpoint: the interval executor must reuse
// the same pooled cycle loop, not introduce per-cycle garbage.
func TestCycleLoopZeroAllocInterval(t *testing.T) {
	p := prog.MustGenerate(mustProfile(t, "gzip"))
	cks := CaptureCheckpoints(p, []uint64{30_000}, memsys.Config{})
	for name, cfg := range intervalConfigs() {
		t.Run(name, func(t *testing.T) {
			pl := NewAt(cfg, p, cks[0])
			pl.Run(40_000) // warm past the checkpoint transient, as the serial gate does
			const batch = 2000
			allocs := testing.AllocsPerRun(5, func() {
				for i := 0; i < batch; i++ {
					pl.Cycle()
				}
			})
			if allocs > 0 {
				t.Errorf("%s: checkpointed cycle loop allocates %.2f objects per %d cycles, want 0", name, allocs, batch)
			}
		})
	}
}

// intervalConfigs is benchConfigs without the multithreaded entries:
// interval checkpoints are single-context (NewAt refuses Threads > 1).
func intervalConfigs() map[string]Config {
	m := benchConfigs()
	for name, cfg := range m {
		if cfg.Threads > 1 {
			delete(m, name)
		}
	}
	return m
}

func mustProfile(t *testing.T, name string) prog.Profile {
	t.Helper()
	prof, ok := prog.ProfileByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return prof
}
