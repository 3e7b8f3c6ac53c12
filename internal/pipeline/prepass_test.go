package pipeline

// The functional pre-passes — the oracle table and interval checkpoint
// capture — walk the program on the committed path, so their memory is
// bounded by what they build, not by how far they walk.

import (
	"runtime"
	"testing"

	"regcache/internal/prog"
)

func mustProgram(tb testing.TB, bench string) *prog.Program {
	tb.Helper()
	prof, ok := prog.ProfileByName(bench)
	if !ok {
		tb.Fatalf("unknown benchmark %q", bench)
	}
	return prog.MustGenerate(prof)
}

// TestBuildOracleAllocBound: a 200k-instruction oracle build allocates the
// table (~250 KB) and the executor's store overlay, not a log of every
// step it took.
func TestBuildOracleAllocBound(t *testing.T) {
	const limit = 2 << 20
	p := mustProgram(t, "gcc")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := BuildOracle(p, 200_000)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("BuildOracle(200k) allocated %d bytes, limit %d", got, limit)
	}
	runtime.KeepAlive(tab)
}

// BenchmarkBuildOracle: one op is one 200k-instruction oracle pre-pass on
// gcc, the build every oracle run pays on a fresh workload cache.
func BenchmarkBuildOracle(b *testing.B) {
	p := mustProgram(b, "gcc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildOracle(p, 200_000)
	}
}

// BenchmarkCaptureCheckpoints: one op is the checkpoint capture of a K=2
// interval run of 200k instructions on gcc with the default warm-up, the
// memory-hierarchy image warmed along the way (5k instructions is the
// run layer's default warm-up, sim.DefaultWarmupInsts).
func BenchmarkCaptureCheckpoints(b *testing.B) {
	p := mustProgram(b, "gcc")
	points := CapturePoints(IntervalStarts(200_000, 2), 5_000)
	mem := DefaultConfig().Mem
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CaptureCheckpoints(p, points, mem)
	}
}
