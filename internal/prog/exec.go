package prog

import (
	"fmt"
	"maps"

	"regcache/internal/isa"
)

// Step describes the functional outcome of executing one instruction: the
// source values read, the result produced, the branch decision, and the
// memory address touched. The timing simulator steps at rename time
// (execute-at-fetch style) and keeps the branch outcome, next PC and
// address to drive branch resolution and the memory system.
type Step struct {
	Inst    *isa.Inst
	S1, S2  uint64 // source values (0 for unused slots)
	Result  uint64 // destination value (loads: loaded value)
	Taken   bool   // branch direction; true for every other control transfer
	NextPC  uint64 // actual next PC
	MemAddr uint64 // word-aligned effective address for loads/stores
}

// Exec is the functional executor: architectural registers plus sparse
// memory with three layers — the store overlay, the program's static image,
// and the procedural initial-memory hash. It supports speculative execution
// with undo-log rollback so the timing pipeline can run down mispredicted
// paths and recover exactly.
type Exec struct {
	prog *Program
	regs [isa.NumArchRegs]uint64
	mem  map[uint64]uint64 // store overlay
	pc   uint64
	log  []undoRec
	head int // index of the first uncommitted record in log
	base int // virtual position of log[0]; tokens are base-relative
}

// undoKind names the architectural write an undo record reverses.
type undoKind uint8

const (
	undoPC  undoKind = iota // no register or memory write: the PC alone
	undoReg                 // register addrReg held oldVal
	undoMem                 // memory word addrReg held oldVal (when hadVal)
)

// undoRec reverses one step or one ForcePC: an instruction writes at most
// one register or one memory word, so a single record holds that write's
// old value plus the PC the step or redirect left.
type undoRec struct {
	kind    undoKind
	hadVal  bool   // undoMem: whether the overlay held a value before
	prevPC  uint64 // PC before the step or redirect
	addrReg uint64 // memory address or register index
	oldVal  uint64
}

// NewExec creates an executor positioned at the program entry with the
// stack pointer initialized.
func NewExec(p *Program) *Exec {
	e := &Exec{
		prog: p,
		mem:  make(map[uint64]uint64, 1024),
		pc:   p.Entry(),
	}
	e.regs[isa.SP] = StackBase
	return e
}

// ExecState is a portable snapshot of the committed architectural state:
// registers, the store overlay, and the program counter. It is the whole
// checkpoint needed to resume functional execution — everything else in an
// Exec (the undo log) is speculation bookkeeping that an architectural
// boundary by definition has none of.
type ExecState struct {
	Regs [isa.NumArchRegs]uint64
	Mem  map[uint64]uint64
	PC   uint64
}

// State deep-copies the current architectural state. It must be taken at a
// committed point (no uncommitted undo-log entries); interval checkpointing
// takes it from a purely functional pre-pass, which never speculates.
func (e *Exec) State() ExecState {
	if e.LogLen() != 0 {
		panic("prog: State taken with uncommitted speculative work")
	}
	return ExecState{Regs: e.regs, PC: e.pc, Mem: maps.Clone(e.mem)}
}

// NewExecAt creates an executor positioned at a previously captured state.
// The state is copied, so one snapshot can seed any number of executors
// (the interval runner starts K pipelines from shared checkpoints).
func NewExecAt(p *Program, st ExecState) *Exec {
	e := &Exec{
		prog: p,
		regs: st.Regs,
		mem:  make(map[uint64]uint64, len(st.Mem)+1024),
		pc:   st.PC,
	}
	maps.Copy(e.mem, st.Mem)
	return e
}

// PC returns the current program counter.
func (e *Exec) PC() uint64 { return e.pc }

// Reg returns the architectural value of r (zero registers read as zero).
func (e *Exec) Reg(r isa.Reg) uint64 {
	if r == isa.RegNone || r.IsZeroReg() {
		return 0
	}
	return e.regs[r.Index()]
}

// Load returns the 64-bit word at addr, consulting the store overlay, then
// the static image, then the procedural initial-memory function.
func (e *Exec) Load(addr uint64) uint64 {
	addr &^= 7
	if v, ok := e.mem[addr]; ok {
		return v
	}
	if v, ok := e.prog.Image[addr]; ok {
		return v
	}
	return HashMem(e.prog.MemSeed, addr)
}

// store writes a word, noting its old value in the step's undo record.
func (e *Exec) store(rec *undoRec, addr, val uint64) {
	addr &^= 7
	old, had := e.mem[addr]
	rec.kind, rec.addrReg, rec.oldVal, rec.hadVal = undoMem, addr, old, had
	e.mem[addr] = val
}

// setReg writes a register, noting its old value in the step's undo
// record. Writes to zero registers are discarded (the record stays
// PC-only).
func (e *Exec) setReg(rec *undoRec, r isa.Reg, val uint64) {
	if r == isa.RegNone || r.IsZeroReg() {
		return
	}
	i := r.Index()
	rec.kind, rec.addrReg, rec.oldVal = undoReg, uint64(i), e.regs[i]
	e.regs[i] = val
}

// Checkpoint returns a token capturing the current speculative depth.
// Rolling back to the token undoes every architectural change made since.
// Tokens are virtual positions: they remain valid across Commit calls.
func (e *Exec) Checkpoint() int { return e.base + len(e.log) }

// Rollback undoes all changes made after the checkpoint token was taken.
// The token must not predate the last Commit.
func (e *Exec) Rollback(token int) {
	idx := token - e.base
	if idx < e.head || idx > len(e.log) {
		panic(fmt.Sprintf("prog: bad rollback token %d (base %d, head %d, log %d)", token, e.base, e.head, len(e.log)))
	}
	for i := len(e.log) - 1; i >= idx; i-- {
		u := &e.log[i]
		switch u.kind {
		case undoReg:
			e.regs[u.addrReg] = u.oldVal
		case undoMem:
			if u.hadVal {
				e.mem[u.addrReg] = u.oldVal
			} else {
				delete(e.mem, u.addrReg)
			}
		}
		e.pc = u.prevPC
	}
	e.log = e.log[:idx]
}

// Commit discards undo history older than the checkpoint token, declaring
// everything before it architecturally final. Later tokens remain valid;
// rolling back past the commit point becomes impossible. The timing
// simulator commits at retirement to keep the undo log bounded.
//
// Commit only advances a head index; the retained tail is compacted to
// the front of the buffer when the dead prefix dominates, so per-retire
// cost is amortized O(1) instead of an O(live-window) copy.
func (e *Exec) Commit(token int) {
	idx := token - e.base
	if idx <= e.head {
		return
	}
	if idx > len(e.log) {
		idx = len(e.log)
	}
	e.head = idx
	if e.head >= 64 && e.head >= len(e.log)-e.head {
		n := copy(e.log, e.log[e.head:])
		e.log = e.log[:n]
		e.base += e.head
		e.head = 0
	}
}

// LogLen returns the current uncommitted undo-log length (exported for
// tests and for the pipeline's token bookkeeping).
func (e *Exec) LogLen() int { return len(e.log) - e.head }

// ForcePC redirects the program counter, recording a PC-only undo entry.
// The timing pipeline uses this to steer execution down the *predicted*
// path after a functionally resolved branch disagrees with the prediction;
// rollback at recovery restores the correct-path PC.
func (e *Exec) ForcePC(pc uint64) {
	e.log = append(e.log, undoRec{prevPC: e.pc})
	e.pc = pc
}

// walkCommitEvery is how many steps a Walk runs between commits: the
// undo log it carries never grows past this.
const walkCommitEvery = 256

// Walk executes up to n instructions from the current PC, calling visit
// (when non-nil) with each instruction and its outcome, and stops early
// at a PC that maps to no instruction. It returns the number executed.
// Walk is the functional pre-pass: it never speculates, so it commits
// the undo log as it goes and once more on return — everything before
// the walk included — leaving the executor at a committed point (State
// may be taken) and the log bounded by walkCommitEvery records.
func (e *Exec) Walk(n uint64, visit func(in *isa.Inst, s Step)) uint64 {
	var i uint64
	for ; i < n; i++ {
		in := e.prog.InstAt(e.pc)
		if in == nil {
			break
		}
		s := e.StepInst(in)
		if visit != nil {
			visit(in, s)
		}
		if e.LogLen() >= walkCommitEvery {
			e.Commit(e.Checkpoint())
		}
	}
	e.Commit(e.Checkpoint())
	return i
}

// Step executes the instruction at the current PC and advances. It panics
// if the PC does not map to an instruction; callers on speculative paths
// must check InstAt first (the pipeline does).
func (e *Exec) Step() Step {
	in := e.prog.InstAt(e.pc)
	if in == nil {
		panic(fmt.Sprintf("prog: execution fell off code at %#x", e.pc))
	}
	return e.StepInst(in)
}

// StepInst executes in (which must be the instruction at the current PC)
// and advances the PC to the functional next PC. The step's architectural
// changes — at most one register or memory write, and the PC — go into
// one undo record.
func (e *Exec) StepInst(in *isa.Inst) Step {
	s := Step{Inst: in, S1: e.Reg(in.Src1), S2: e.Reg(in.Src2)}
	rec := undoRec{prevPC: e.pc}
	next := in.FallThrough()
	switch in.Op {
	case isa.OpNop:
	case isa.OpIAlu, isa.OpIMul, isa.OpFAlu, isa.OpFMul, isa.OpFDiv:
		s2eff := s.S2
		if in.Src2 == isa.RegNone {
			s2eff = uint64(in.Imm)
		}
		s.Result = isa.EvalALU(in.Fn, in.Imm, s.S1, s2eff)
		e.setReg(&rec, in.Dest, s.Result)
	case isa.OpLoad:
		s.MemAddr = (s.S1 + uint64(in.Imm)) &^ 7
		s.Result = e.Load(s.MemAddr)
		e.setReg(&rec, in.Dest, s.Result)
	case isa.OpStore:
		s.MemAddr = (s.S1 + uint64(in.Imm)) &^ 7
		e.store(&rec, s.MemAddr, s.S2)
	case isa.OpBranch:
		s.Taken = isa.BranchTaken(in.Fn, s.S1)
		if s.Taken {
			next = in.Target
		}
	case isa.OpJump:
		s.Taken = true
		next = in.Target
	case isa.OpCall:
		s.Taken = true
		s.Result = in.FallThrough()
		e.setReg(&rec, in.Dest, s.Result)
		next = in.Target
	case isa.OpRet, isa.OpIndirect:
		s.Taken = true
		next = s.S1
	default:
		panic(fmt.Sprintf("prog: unknown opcode %v", in.Op))
	}
	s.NextPC = next
	e.pc = next
	e.log = append(e.log, rec)
	return s
}
