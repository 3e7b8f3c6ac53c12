// Package prog provides static program representation, a label-resolving
// program builder, a functional executor with speculative-rollback support,
// and a deterministic synthetic benchmark generator that stands in for the
// SPECint 2000 workloads of the paper (see DESIGN.md for the substitution
// argument).
package prog

import (
	"fmt"

	"regcache/internal/isa"
)

// CodeBase is the address of the first instruction of every program.
const CodeBase uint64 = 0x1000

// Memory layout constants shared by the generator and the executor.
const (
	GlobalBase uint64 = 0x1000_0000 // global data region
	TableBase  uint64 = 0x2000_0000 // jump tables (live in the static image)
	StackBase  uint64 = 0x7fff_0000 // initial stack pointer, grows down
)

// Program is an immutable static program: a dense instruction array indexed
// by PC, plus the static memory image (jump tables) and the seed for the
// procedural initial-memory function.
type Program struct {
	Name    string
	insts   []isa.Inst
	Image   map[uint64]uint64 // static data (word-aligned addresses)
	MemSeed uint64            // seed for HashMem procedural memory
}

// NumInsts returns the static instruction count.
func (p *Program) NumInsts() int { return len(p.insts) }

// Entry returns the PC of the first instruction.
func (p *Program) Entry() uint64 { return CodeBase }

// InstAt returns the instruction at pc, or nil if pc is outside the code
// region or misaligned. Fetch down a bogus speculative path sees nil and
// stalls until redirect, modeling a fetch into unmapped memory.
func (p *Program) InstAt(pc uint64) *isa.Inst {
	if pc < CodeBase || pc%isa.InstBytes != 0 {
		return nil
	}
	idx := (pc - CodeBase) / isa.InstBytes
	if idx >= uint64(len(p.insts)) {
		return nil
	}
	return &p.insts[idx]
}

// Validate checks structural invariants: every direct branch target lands on
// a real instruction, operand registers are valid, and jump-table entries
// point into the code region. Generator bugs surface here rather than as
// mysterious simulation stalls.
func (p *Program) Validate() error {
	for i := range p.insts {
		in := &p.insts[i]
		if in.Op.IsBranch() && !in.Op.IsIndirect() {
			if p.InstAt(in.Target) == nil {
				return fmt.Errorf("inst %s: branch target %#x outside code", in, in.Target)
			}
		}
		for _, r := range [...]isa.Reg{in.Src1, in.Src2} {
			if r != isa.RegNone && !r.Valid() {
				return fmt.Errorf("inst %s: invalid source register", in)
			}
		}
		if in.Dest != isa.RegNone && !in.Dest.Valid() {
			return fmt.Errorf("inst %s: invalid dest register", in)
		}
	}
	for addr, v := range p.Image {
		if addr >= TableBase && addr < StackBase {
			if p.InstAt(v) == nil {
				return fmt.Errorf("jump table entry at %#x: target %#x outside code", addr, v)
			}
		}
	}
	return nil
}

// Builder assembles a Program instruction by instruction with symbolic
// labels. Branch targets may reference labels defined later; Finish patches
// them all and validates the result.
type Builder struct {
	name        string
	insts       []isa.Inst
	image       map[uint64]uint64
	memSeed     uint64
	labels      map[string]uint64
	patches     []patch
	dataPatches []dataPatch
}

type patch struct {
	instIdx int
	label   string
}

// NewBuilder creates an empty program builder.
func NewBuilder(name string, memSeed uint64) *Builder {
	return &Builder{
		name:    name,
		image:   make(map[uint64]uint64),
		memSeed: memSeed,
		labels:  make(map[string]uint64),
	}
}

// PC returns the address the next emitted instruction will occupy.
func (b *Builder) PC() uint64 {
	return CodeBase + uint64(len(b.insts))*isa.InstBytes
}

// Label binds name to the current PC. Binding the same name twice panics —
// that is always a generator bug.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic("prog: duplicate label " + name)
	}
	b.labels[name] = b.PC()
}

// Emit appends an instruction, assigning its PC.
func (b *Builder) Emit(in isa.Inst) {
	in.PC = b.PC()
	b.insts = append(b.insts, in)
}

// EmitBranch appends a control-flow instruction whose target is the given
// label, which may be defined later.
func (b *Builder) EmitBranch(in isa.Inst, label string) {
	in.PC = b.PC()
	b.insts = append(b.insts, in)
	b.patches = append(b.patches, patch{instIdx: len(b.insts) - 1, label: label})
}

// Data places one 64-bit word into the static memory image.
func (b *Builder) Data(addr, value uint64) {
	b.image[addr&^7] = value
}

// LabelAddr returns the address bound to label, or panics if undefined.
// Valid only after the label has been bound.
func (b *Builder) LabelAddr(label string) uint64 {
	a, ok := b.labels[label]
	if !ok {
		panic("prog: undefined label " + label)
	}
	return a
}

// DataLabel places the (eventually resolved) address of a label into the
// static image — used for jump tables. The label must be bound by Finish.
func (b *Builder) DataLabel(addr uint64, label string) {
	b.dataPatches = append(b.dataPatches, dataPatch{addr: addr &^ 7, label: label})
}

type dataPatch struct {
	addr  uint64
	label string
}

// Finish resolves all label references and returns the validated program.
func (b *Builder) Finish() (*Program, error) {
	for _, pt := range b.patches {
		addr, ok := b.labels[pt.label]
		if !ok {
			return nil, fmt.Errorf("prog: unresolved label %q", pt.label)
		}
		b.insts[pt.instIdx].Target = addr
	}
	for _, dp := range b.dataPatches {
		addr, ok := b.labels[dp.label]
		if !ok {
			return nil, fmt.Errorf("prog: unresolved data label %q", dp.label)
		}
		b.image[dp.addr] = addr
	}
	p := &Program{
		Name:    b.name,
		insts:   b.insts,
		Image:   b.image,
		MemSeed: b.memSeed,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
