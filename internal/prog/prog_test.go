package prog

import (
	"testing"

	"regcache/internal/isa"
)

// buildTinyLoop assembles: r1 = 5; L: r2 = r2 + 1; r1 = r1 - 1; bne r1, L;
// then an infinite self-loop so execution never falls off the code.
func buildTinyLoop(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("tiny", 1)
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: isa.IntR(1), Imm: 5})
	b.Label("L")
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: isa.IntR(2), Src1: isa.IntR(2), Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnAdd, Dest: isa.IntR(1), Src1: isa.IntR(1), Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBranch, Fn: isa.FnCmpNE, Src1: isa.IntR(1)}, "L")
	b.Label("End")
	b.EmitBranch(isa.Inst{Op: isa.OpJump}, "End")
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderAndLoopExecution(t *testing.T) {
	p := buildTinyLoop(t)
	e := NewExec(p)
	steps := 0
	for e.PC() != p.Entry()+4*isa.InstBytes && steps < 100 {
		e.Step()
		steps++
	}
	// 1 init + 5 iterations * 3 insts = 16 steps to reach the End label.
	if steps != 16 {
		t.Fatalf("loop took %d steps, want 16", steps)
	}
	if got := e.Reg(isa.IntR(2)); got != 5 {
		t.Fatalf("r2 = %d, want 5 (one increment per iteration)", got)
	}
	if got := e.Reg(isa.IntR(1)); got != 0 {
		t.Fatalf("r1 = %d, want 0", got)
	}
}

func TestBuilderUnresolvedLabel(t *testing.T) {
	b := NewBuilder("bad", 1)
	b.EmitBranch(isa.Inst{Op: isa.OpJump}, "nowhere")
	if _, err := b.Finish(); err == nil {
		t.Fatal("expected error for unresolved label")
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate label")
		}
	}()
	b := NewBuilder("dup", 1)
	b.Label("x")
	b.Label("x")
}

func TestValidateCatchesBadBranchTarget(t *testing.T) {
	b := NewBuilder("bad", 1)
	b.Emit(isa.Inst{Op: isa.OpBranch, Fn: isa.FnCmpNE, Src1: isa.IntR(1), Target: 0x99999})
	if _, err := b.Finish(); err == nil {
		t.Fatal("expected validation error for out-of-code branch target")
	}
}

func TestInstAtBounds(t *testing.T) {
	p := buildTinyLoop(t)
	if p.InstAt(CodeBase-isa.InstBytes) != nil {
		t.Error("InstAt below code should be nil")
	}
	if p.InstAt(CodeBase+1) != nil {
		t.Error("misaligned InstAt should be nil")
	}
	if p.InstAt(CodeBase+uint64(p.NumInsts())*isa.InstBytes) != nil {
		t.Error("InstAt past end should be nil")
	}
	if p.InstAt(CodeBase) == nil {
		t.Error("InstAt entry should not be nil")
	}
}

func TestExecMemoryLayers(t *testing.T) {
	b := NewBuilder("mem", 42)
	b.Data(0x1234_5678, 123) // globals region: exempt from jump-table validation
	b.Label("E")
	b.EmitBranch(isa.Inst{Op: isa.OpJump}, "E")
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(p)
	if got := e.Load(0x1234_5678); got != 123 {
		t.Fatalf("static image read = %d, want 123", got)
	}
	// Procedural memory: deterministic and non-zero with high probability.
	v1 := e.Load(0x1000_0000)
	v2 := e.Load(0x1000_0000)
	if v1 != v2 {
		t.Fatal("procedural memory not deterministic")
	}
	if v1 != HashMem(42, 0x1000_0000) {
		t.Fatal("procedural memory does not match HashMem")
	}
	// Stores overlay both layers.
	e.store(&undoRec{}, 0x1234_5678, 7)
	if e.Load(0x1234_5678) != 7 {
		t.Fatal("store overlay not visible")
	}
}

func TestExecRollback(t *testing.T) {
	p := buildTinyLoop(t)
	e := NewExec(p)
	e.Step() // r1 = 5
	tok := e.Checkpoint()
	pcBefore := e.PC()
	r1, r2 := e.Reg(isa.IntR(1)), e.Reg(isa.IntR(2))
	for i := 0; i < 7; i++ {
		e.Step()
	}
	e.Rollback(tok)
	if e.PC() != pcBefore || e.Reg(isa.IntR(1)) != r1 || e.Reg(isa.IntR(2)) != r2 {
		t.Fatalf("rollback did not restore state: pc=%#x r1=%d r2=%d", e.PC(), e.Reg(isa.IntR(1)), e.Reg(isa.IntR(2)))
	}
	// Execution after rollback proceeds identically.
	s := e.Step()
	if s.Inst.PC != pcBefore {
		t.Fatal("step after rollback executed wrong instruction")
	}
}

func TestExecRollbackMemory(t *testing.T) {
	b := NewBuilder("memroll", 9)
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: isa.IntR(1), Imm: int64(GlobalBase)})
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: isa.IntR(2), Imm: 77})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: isa.IntR(1), Src2: isa.IntR(2)})
	b.Label("E")
	b.EmitBranch(isa.Inst{Op: isa.OpJump}, "E")
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(p)
	e.Step()
	e.Step()
	orig := e.Load(GlobalBase)
	tok := e.Checkpoint()
	e.Step() // store
	if e.Load(GlobalBase) != 77 {
		t.Fatal("store not applied")
	}
	e.Rollback(tok)
	if e.Load(GlobalBase) != orig {
		t.Fatal("memory rollback failed: overlay entry not removed")
	}
}

func TestExecCommitBoundsLog(t *testing.T) {
	p := buildTinyLoop(t)
	e := NewExec(p)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	n := e.LogLen()
	if n == 0 {
		t.Fatal("expected undo entries")
	}
	e.Commit(n)
	if e.LogLen() != 0 {
		t.Fatalf("commit left %d entries", e.LogLen())
	}
	// State is unaffected by commit.
	if e.Reg(isa.IntR(2)) == 0 {
		t.Fatal("commit corrupted register state")
	}
}

func TestCallRet(t *testing.T) {
	b := NewBuilder("call", 3)
	// main: sp init is implicit; call f; then spin.
	b.EmitBranch(isa.Inst{Op: isa.OpCall, Dest: isa.RA}, "f")
	b.Label("E")
	b.EmitBranch(isa.Inst{Op: isa.OpJump}, "E")
	b.Label("f")
	b.Emit(isa.Inst{Op: isa.OpIAlu, Fn: isa.FnLoadImm, Dest: isa.IntR(5), Imm: 99})
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RA})
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(p)
	s := e.Step() // call
	if !s.Taken || e.Reg(isa.RA) != p.Entry()+isa.InstBytes {
		t.Fatal("call did not record return address")
	}
	e.Step()     // li in f
	s = e.Step() // ret
	if s.NextPC != p.Entry()+isa.InstBytes {
		t.Fatalf("ret went to %#x, want %#x", s.NextPC, p.Entry()+isa.InstBytes)
	}
	if e.Reg(isa.IntR(5)) != 99 {
		t.Fatal("function body did not execute")
	}
}

func TestGenerateAllProfilesValid(t *testing.T) {
	for _, prof := range SPECProfiles {
		p, err := Generate(prof)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if p.NumInsts() < 200 {
			t.Errorf("%s: suspiciously small program (%d insts)", prof.Name, p.NumInsts())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(SPECProfiles[0])
	b := MustGenerate(SPECProfiles[0])
	if a.NumInsts() != b.NumInsts() {
		t.Fatal("same profile generated different program sizes")
	}
	for i := 0; i < a.NumInsts(); i++ {
		pc := CodeBase + uint64(i)*isa.InstBytes
		if *a.InstAt(pc) != *b.InstAt(pc) {
			t.Fatalf("instruction %d differs between identical generations", i)
		}
	}
}

func TestGeneratedProgramsRun(t *testing.T) {
	const steps = 50_000
	for _, prof := range SPECProfiles {
		p := MustGenerate(prof)
		e := NewExec(p)
		if n := e.Walk(steps, nil); n != steps {
			t.Fatalf("%s: execution fell off code at %#x after %d steps", prof.Name, e.PC(), n)
		}
	}
}

func TestCharacterizationShape(t *testing.T) {
	// The statistical properties the paper's mechanisms rely on must hold
	// for the generated suite: most values single-use, moderate load
	// fraction, branches present, calls balanced.
	for _, name := range []string{"gzip", "mcf", "gcc"} {
		prof, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		c := Characterize(MustGenerate(prof), 200_000)
		if c.Insts < 100_000 {
			t.Fatalf("%s: executed only %d insts", name, c.Insts)
		}
		if su := c.SingleUseFrac(); su < 0.35 || su > 0.85 {
			t.Errorf("%s: single-use fraction %.2f outside [0.35, 0.85]", name, su)
		}
		if lf := c.OpFrac(isa.OpLoad); lf < 0.05 || lf > 0.45 {
			t.Errorf("%s: load fraction %.2f outside [0.05, 0.45]", name, lf)
		}
		if bf := c.OpFrac(isa.OpBranch); bf < 0.02 || bf > 0.35 {
			t.Errorf("%s: branch fraction %.2f outside [0.02, 0.35]", name, bf)
		}
		calls, rets := c.OpCounts[isa.OpCall], c.OpCounts[isa.OpRet]
		if diff := int64(calls) - int64(rets); diff < -2 || diff > int64(calls)/2+40 {
			t.Errorf("%s: calls %d vs rets %d wildly unbalanced", name, calls, rets)
		}
		if c.String() == "" {
			t.Error("empty characterization report")
		}
	}
}

func TestProfileLookup(t *testing.T) {
	if _, ok := ProfileByName("nonesuch"); ok {
		t.Error("unexpected profile hit")
	}
	names := ProfileNames()
	if len(names) != 12 {
		t.Fatalf("expected 12 profiles, got %d", len(names))
	}
	for _, n := range names {
		if _, ok := ProfileByName(n); !ok {
			t.Errorf("ProfileByName(%q) failed", n)
		}
	}
}

func TestRNGDeterminismAndRanges(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Range(3, 5); v < 3 || v > 5 {
			t.Fatalf("Range out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if g := r.Geometric(5, 20); g < 1 || g > 20 {
			t.Fatalf("Geometric out of range: %d", g)
		}
	}
}

func TestRNGWeighted(t *testing.T) {
	r := NewRNG(2)
	counts := [3]int{}
	for i := 0; i < 30_000; i++ {
		counts[r.Weighted([]float64{1, 0, 3})]++
	}
	if counts[1] != 0 {
		t.Error("zero-weight bucket selected")
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("weighted ratio %.2f, want ~3", ratio)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(3)
	var sum int
	const n = 20_000
	for i := 0; i < n; i++ {
		sum += r.Geometric(8, 1000)
	}
	mean := float64(sum) / n
	if mean < 7 || mean > 9 {
		t.Errorf("geometric mean %.2f, want ~8", mean)
	}
}

func TestCheckpointTokensSurviveCommit(t *testing.T) {
	p := buildTinyLoop(t)
	e := NewExec(p)
	e.Step()
	tokA := e.Checkpoint()
	e.Step()
	tokB := e.Checkpoint()
	e.Step()
	e.Step()
	// Commit up to tokA; tokB must remain a valid rollback target.
	e.Commit(tokA)
	e.Rollback(tokB)
	if e.LogLen() != tokB-tokA {
		t.Fatalf("log length = %d, want %d", e.LogLen(), tokB-tokA)
	}
	// Rolling back before the commit point must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic rolling back past commit point")
		}
	}()
	e.Rollback(tokA - 1)
}

func TestForcePCIsUndone(t *testing.T) {
	p := buildTinyLoop(t)
	e := NewExec(p)
	e.Step()
	tok := e.Checkpoint()
	correct := e.PC()
	e.ForcePC(0x9999)
	if e.PC() != 0x9999 {
		t.Fatal("ForcePC did not redirect")
	}
	e.Rollback(tok)
	if e.PC() != correct {
		t.Fatalf("rollback restored pc=%#x, want %#x", e.PC(), correct)
	}
}
