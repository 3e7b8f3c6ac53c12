package prog

import (
	"maps"
	"testing"

	"regcache/internal/isa"
)

// TestRollbackMatchesReplay drives the executor through random sequences
// of StepInst, ForcePC, Rollback and Commit on generated programs. After
// every rollback the registers, PC, store overlay and loads over every
// address any store touched must equal a reference executor that starts
// from a State snapshot and replays only the surviving operations — the
// undo log has to reverse exactly what each step and redirect did.
func TestRollbackMatchesReplay(t *testing.T) {
	ops, programs := 1_500, 6
	if testing.Short() {
		ops, programs = 400, 2
	}
	r := NewRNG(0x5eed)
	for pi := 0; pi < programs; pi++ {
		b := func() byte { return byte(r.Uint64()) }
		prof := fuzzProfile(r.Uint64(), b(), b(), b(), b(), b(), b(), b(), b())
		p, err := Generate(prof)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", prof, err)
		}
		checkRandomUndo(t, p, r, ops)
	}
}

// replayOp is one surviving executor operation: a step, or a redirect to pc.
type replayOp struct {
	force bool
	pc    uint64
}

func checkRandomUndo(t *testing.T, p *Program, r *RNG, n int) {
	e := NewExec(p)
	// Start from a committed point some way into the program, so the
	// snapshot carries registers and a store overlay of its own.
	e.Walk(uint64(r.Intn(2_000)), nil)
	st := e.State()

	var ops []replayOp
	toks := []int{e.Checkpoint()} // toks[i]: token after ops[:i]
	floor := 0                    // ops before the last commit can no longer be undone
	touched := make(map[uint64]bool)
	randomPC := func() uint64 { return p.Entry() + uint64(r.Intn(p.NumInsts()))*isa.InstBytes }

	for i := 0; i < n; i++ {
		switch k := r.Intn(100); {
		case k < 65:
			in := p.InstAt(e.PC())
			if in == nil {
				// A redirect left the code image: steer back, as recovery would.
				pc := randomPC()
				e.ForcePC(pc)
				ops = append(ops, replayOp{force: true, pc: pc})
				break
			}
			s := e.StepInst(in)
			if in.Op == isa.OpStore {
				touched[s.MemAddr] = true
			}
			ops = append(ops, replayOp{})
		case k < 78:
			pc := randomPC()
			if r.Intn(8) == 0 {
				pc = 0x10 // unmapped
			}
			e.ForcePC(pc)
			ops = append(ops, replayOp{force: true, pc: pc})
		case k < 92:
			keep := floor + r.Intn(len(ops)-floor+1)
			e.Rollback(toks[keep])
			ops, toks = ops[:keep], toks[:keep+1]
			ref := NewExecAt(p, st)
			for _, op := range ops {
				if op.force {
					ref.ForcePC(op.pc)
				} else {
					ref.StepInst(p.InstAt(ref.PC()))
				}
			}
			if e.PC() != ref.PC() || e.regs != ref.regs {
				t.Fatalf("op %d: rollback to %d ops: pc %#x regs %v, replay pc %#x regs %v",
					i, keep, e.PC(), e.regs, ref.PC(), ref.regs)
			}
			if !maps.Equal(e.mem, ref.mem) {
				t.Fatalf("op %d: rollback to %d ops: store overlay differs from replay", i, keep)
			}
			for a := range touched {
				if e.Load(a) != ref.Load(a) {
					t.Fatalf("op %d: rollback to %d ops: load %#x = %#x, replay %#x", i, keep, a, e.Load(a), ref.Load(a))
				}
			}
			continue
		default:
			floor += r.Intn(len(ops) - floor + 1)
			e.Commit(toks[floor])
			continue
		}
		toks = append(toks, e.Checkpoint())
		if got := e.LogLen(); got != len(ops)-floor {
			t.Fatalf("op %d: log holds %d records for %d uncommitted operations", i, got, len(ops)-floor)
		}
	}
}

// TestWalkLogBounded: a long walk carries at most walkCommitEvery undo
// records at any step and none on return, and its buffer never grows
// past that either.
func TestWalkLogBounded(t *testing.T) {
	prof, _ := ProfileByName("gcc")
	p := MustGenerate(prof)
	e := NewExec(p)
	maxLen := 0
	n := e.Walk(200_000, func(*isa.Inst, Step) {
		maxLen = max(maxLen, e.LogLen())
	})
	if n != 200_000 {
		t.Fatalf("walk stopped after %d steps", n)
	}
	if maxLen > walkCommitEvery {
		t.Errorf("walk carried %d undo records, bound %d", maxLen, walkCommitEvery)
	}
	if e.LogLen() != 0 {
		t.Errorf("walk returned with %d uncommitted records", e.LogLen())
	}
	if cap(e.log) > 2*walkCommitEvery {
		t.Errorf("undo buffer grew to %d records", cap(e.log))
	}
}

// BenchmarkExecStep: one op is one committed functional step on gzip
// (StepInst plus the walk's amortized commit).
func BenchmarkExecStep(b *testing.B) {
	prof, _ := ProfileByName("gzip")
	e := NewExec(MustGenerate(prof))
	b.ReportAllocs()
	b.ResetTimer()
	e.Walk(uint64(b.N), nil)
}

// BenchmarkGenerate: one op is one generation of the gcc program, the
// largest built-in code image.
func BenchmarkGenerate(b *testing.B) {
	prof, _ := ProfileByName("gcc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustGenerate(prof)
	}
}
