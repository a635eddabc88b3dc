package rv32

import (
	"fmt"

	"repro/internal/isa"
)

// This file is the bridge between the architectural tier and the timing
// tier: microOp maps an RV32 instruction onto the pipeline's operation
// classes, once per text word (mapText); appendMapped (through
// Streamer) fills in the dynamic facts of every retired instruction —
// effective addresses, branch outcomes and targets — and Image holds
// the static text for the wrong-path model.
//
// The mapping:
//
//   - ALU, LUI, AUIPC and the shift/compare group -> IntAlu
//   - MUL/MULH/MULHSU/MULHU -> IntMul; DIV/DIVU/REM/REMU -> IntDiv
//   - loads -> Load, stores -> Store (Src1 base, Src2 data), with the
//     executed effective address
//   - conditional branches -> Branch with the architectural outcome and
//     the would-be-taken target
//   - JAL/JALR -> Branch (always taken, with the real target; JALR's
//     target dependence on rs1 is kept as Src1), preceded by an IntAlu
//     writing the link register when rd != x0 — one RV32 jump-and-link
//     becomes two pipeline micro-ops at the same PC
//   - writes to x0 are architectural no-ops and map to Nop; x0 as a
//     source maps to integer register 0, which no mapped instruction
//     ever writes, so it behaves as the always-ready zero register
//
// Loads targeting x0 have no destination to rename and are rejected:
// programs must not use them (none of the shipped ones do).

// reg maps an RV32 register number onto the pipeline's integer class.
func reg(n uint8) isa.Reg { return isa.IntReg(int(n)) }

// opForm is how one RV32 op maps onto a pipeline micro-op: its
// operation class (Nop: no pipeline form) and the operand fields it
// reads, as form* bits.
type opForm struct {
	class isa.Op
	bits  uint8
}

const (
	formRd   = 1 << iota // Dest from rd (a write to x0 makes the op a Nop)
	formRs1              // Src1 from rs1
	formRs2              // Src2 from rs2
	formJump             // always taken
)

// opForms is the one RV32 classification table (see microOp).
var opForms = func() (t [numOps]opForm) {
	set := func(class isa.Op, bits uint8, ops ...Op) {
		for _, op := range ops {
			t[op] = opForm{class, bits}
		}
	}
	set(isa.IntAlu, formRd, LUI, AUIPC)
	set(isa.IntAlu, formRd|formRs1, ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI)
	set(isa.IntAlu, formRd|formRs1|formRs2, ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND)
	set(isa.IntMul, formRd|formRs1|formRs2, MUL, MULH, MULHSU, MULHU)
	set(isa.IntDiv, formRd|formRs1|formRs2, DIV, DIVU, REM, REMU)
	set(isa.Load, formRd|formRs1, LB, LH, LW, LBU, LHU)
	set(isa.Store, formRs1|formRs2, SB, SH, SW)
	set(isa.Branch, formRs1|formRs2, BEQ, BNE, BLT, BGE, BLTU, BGEU)
	set(isa.Branch, formJump, JAL)
	set(isa.Branch, formJump|formRs1, JALR)
	return t
}()

// nop is the pipeline no-op at pc.
func nop(pc uint64) isa.Inst {
	return isa.Inst{Op: isa.Nop, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PC: pc}
}

// microOp is the one RV32 classification: the pipeline operation class
// and register operands of d at pc. Addresses, branch outcomes and
// targets are dynamic and left zero, except that jumps are always
// taken; JAL/JALR map to their branch half (appendMapped adds the link
// write). Writes to x0 and ops with no pipeline form (EBREAK, ECALL)
// map to a Nop; a load into x0 keeps Dest x0 for the callers to reject.
func microOp(d Decoded, pc uint64) isa.Inst {
	f := opForms[d.Op]
	in := nop(pc)
	if f.class == isa.Nop || f.bits&formRd != 0 && d.Rd == 0 && f.class != isa.Load {
		return in
	}
	in.Op, in.Taken = f.class, f.bits&formJump != 0
	if f.bits&formRd != 0 {
		in.Dest = reg(d.Rd)
	}
	if f.bits&formRs1 != 0 {
		in.Src1 = reg(d.Rs1)
	}
	if f.bits&formRs2 != 0 {
		in.Src2 = reg(d.Rs2)
	}
	return in
}

// mapText classifies every word of p's text once (undecodable words map
// to a Nop): the per-PC skeletons the Streamer completes with each
// retired instruction's dynamic facts, and the Image neutralises for
// the wrong path.
func mapText(p *Program) []isa.Inst {
	ops := make([]isa.Inst, len(p.Text))
	for i, w := range p.Text {
		pc := uint64(TextBase) + uint64(i)*4
		ops[i] = nop(pc)
		if d, err := Decode(w); err == nil {
			ops[i] = microOp(d, pc)
		}
	}
	return ops
}

// appendMapped completes the micro-op skeleton of r's text word with
// r's dynamic facts and appends it to out, after the link write of a
// jump-and-link.
func (s *Streamer) appendMapped(out []isa.Inst, r Retired) ([]isa.Inst, error) {
	d := r.D
	in := s.ops[(r.PC-TextBase)/4]
	switch {
	case d.Op == EBREAK:
		return out, nil // the halt itself does not enter the pipeline
	case opForms[d.Op].class == isa.Nop:
		return nil, fmt.Errorf("rv32: pc=%#x: unmappable op %v", r.PC, d.Op)
	}
	switch in.Op {
	case isa.Load:
		if d.Rd == 0 {
			return nil, fmt.Errorf("rv32: pc=%#x: load into x0 cannot be mapped", r.PC)
		}
		in.Addr = uint64(r.Addr)
	case isa.Store:
		in.Addr = uint64(r.Addr)
	case isa.Branch:
		in.Target = uint64(r.Target)
		switch {
		case d.Op != JAL && d.Op != JALR:
			in.Taken = r.Taken
		case d.Rd != 0:
			out = append(out, isa.Inst{
				Op: isa.IntAlu, Dest: reg(d.Rd), Src1: isa.RegNone, Src2: isa.RegNone, PC: in.PC,
			})
		}
	}
	return append(out, in), nil
}

// Image is the static pipeline view of a program's text, one mapped
// instruction per word. The core fetches from it past an unresolved
// mispredicted branch: wrong-path instructions get the real PCs and
// register dependences of the code at the predicted (wrong) target,
// while side-effecting classes are neutralised — stores, branches and
// jumps become Nops (a wrong-path store must not drain, and a
// wrong-path branch must not redirect fetch), and load addresses are
// left for the core's wrong-path address model to fill in.
type Image struct {
	base uint64
	code []isa.Inst
}

// NewImage builds the static image of p's text.
func NewImage(p *Program) (*Image, error) {
	if len(p.Text) == 0 {
		return nil, fmt.Errorf("rv32: program %q has no text", p.Name)
	}
	code := mapText(p)
	for i, in := range code {
		if in.Op == isa.Store || in.Op == isa.Branch || in.Op == isa.Load && in.Dest == reg(0) {
			code[i] = nop(in.PC)
		}
	}
	return &Image{base: uint64(TextBase), code: code}, nil
}

// Len returns the number of static instructions.
func (im *Image) Len() int { return len(im.code) }

// IndexOf returns the static index of pc, if it lies inside the text.
func (im *Image) IndexOf(pc uint64) (int, bool) {
	if pc < im.base || (pc-im.base)%4 != 0 {
		return 0, false
	}
	i := int((pc - im.base) / 4)
	if i >= len(im.code) {
		return 0, false
	}
	return i, true
}

// At returns the static instruction at index i.
func (im *Image) At(i int) isa.Inst { return im.code[i] }
