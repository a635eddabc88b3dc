package rv32

import (
	"encoding/binary"
	"fmt"
)

// Address-space layout shared by all programs. The text base is nonzero
// so instruction PCs never collide with the isa.Inst convention that a
// zero address is invalid; program data lives above the text and the
// stack grows down from StackTop.
const (
	TextBase uint32 = 0x1000
	DataBase uint32 = 0x10000
	StackTop uint32 = 0x7FFF0

	// minAddr guards the executor: any data access below it is a
	// program bug (null or text-range pointer) and faults.
	minAddr uint32 = 0x1000

	pageBits = 12
	pageSize = 1 << pageBits

	// lowPages is the reach of the executor's flat page table: every
	// page below 16 MiB, which holds the text, the stack and every
	// shipped program's data (the largest, chase at its input cap,
	// ends near 8.6 MiB). Higher addresses fall back to a sparse map.
	lowPages = 0x1000000 >> pageBits
)

// page is one zero-initialised page of data memory.
type page = [pageSize]byte

// Segment is one initialised data region of a program image.
type Segment struct {
	Addr uint32
	Data []byte
}

// Program is an executable image: encoded text at TextBase, initialised
// data segments, and the initial register file (programs receive their
// parameters in registers, classic bare-metal style). Programs halt by
// executing EBREAK.
type Program struct {
	Name string
	Text []uint32
	Data []Segment
	// Init holds initial register values by register number; x0 must
	// be absent or zero.
	Init map[int]uint32
}

// Machine architecturally executes a Program: a register file, a paged
// data memory, and a program counter. It is the functional tier of the
// two-tier frontend — it computes what the program does; the pipeline
// decides how long it takes.
type Machine struct {
	prog *Program
	// code is prog.Text decoded once; an undecodable word is left as
	// the zero Decoded (opInvalid) and faults only when executed.
	code []Decoded
	pc   uint32
	regs [32]uint32
	// low is the flat page table below lowPages; pages holds the rest.
	// Both allocate pages on first touch.
	low    [lowPages]*page
	pages  map[uint32]*page
	halted bool
	steps  uint64
}

// Retired describes one architecturally executed instruction, with the
// dynamic facts (outcome, target, effective address) the trace mapper
// needs.
type Retired struct {
	PC     uint32
	D      Decoded
	Taken  bool   // control flow: did it leave the fall-through path
	Target uint32 // control flow: the taken-path target address
	Addr   uint32 // memory: the effective byte address
	Halt   bool
}

// NewMachine loads p and returns a machine ready to execute from
// TextBase.
func NewMachine(p *Program) (*Machine, error) {
	if len(p.Text) == 0 {
		return nil, fmt.Errorf("rv32: program %q has no text", p.Name)
	}
	m := &Machine{prog: p, pc: TextBase, code: make([]Decoded, len(p.Text))}
	for i, w := range p.Text {
		if d, err := Decode(w); err == nil {
			m.code[i] = d
		}
	}
	for r, v := range p.Init {
		if r == 0 && v != 0 {
			return nil, fmt.Errorf("rv32: program %q initialises x0 to %#x", p.Name, v)
		}
		if r < 0 || r > 31 {
			return nil, fmt.Errorf("rv32: program %q initialises register x%d", p.Name, r)
		}
		m.regs[r] = v
	}
	m.regs[0] = 0
	for _, seg := range p.Data {
		if seg.Addr < minAddr {
			return nil, fmt.Errorf("rv32: program %q: data segment at %#x below %#x", p.Name, seg.Addr, minAddr)
		}
		for i, b := range seg.Data {
			m.storeByte(seg.Addr+uint32(i), b)
		}
	}
	return m, nil
}

// Halted reports whether the program executed EBREAK.
func (m *Machine) Halted() bool { return m.halted }

// Steps returns the number of instructions executed so far.
func (m *Machine) Steps() uint64 { return m.steps }

// Reg returns the current value of register x{r}.
func (m *Machine) Reg(r int) uint32 { return m.regs[r] }

// page returns the backing page for addr, allocating zeroed pages on
// first touch (program memory is zero-initialised).
func (m *Machine) page(addr uint32) *page {
	pn := addr >> pageBits
	if pn < lowPages {
		p := m.low[pn]
		if p == nil {
			p = new(page)
			m.low[pn] = p
		}
		return p
	}
	p := m.pages[pn]
	if p == nil {
		if m.pages == nil {
			m.pages = map[uint32]*page{}
		}
		p = new(page)
		m.pages[pn] = p
	}
	return p
}

func (m *Machine) storeByte(addr uint32, b byte) {
	m.page(addr)[addr&(pageSize-1)] = b
}

func (m *Machine) loadByte(addr uint32) byte {
	return m.page(addr)[addr&(pageSize-1)]
}

// ReadWord reads a 32-bit little-endian word; tests use it to check a
// program's architectural results. An aligned word never straddles a
// page, so it takes one page lookup.
func (m *Machine) ReadWord(addr uint32) uint32 {
	if addr%4 == 0 {
		o := addr & (pageSize - 1)
		return binary.LittleEndian.Uint32(m.page(addr)[o : o+4])
	}
	return uint32(m.loadByte(addr)) |
		uint32(m.loadByte(addr+1))<<8 |
		uint32(m.loadByte(addr+2))<<16 |
		uint32(m.loadByte(addr+3))<<24
}

// writeWord stores an aligned 32-bit little-endian word.
func (m *Machine) writeWord(addr uint32, v uint32) {
	o := addr & (pageSize - 1)
	binary.LittleEndian.PutUint32(m.page(addr)[o:o+4], v)
}

func (m *Machine) checkAccess(addr uint32, size uint32, pc uint32) error {
	if addr < minAddr {
		return fmt.Errorf("rv32: %q pc=%#x: access to %#x below %#x", m.prog.Name, pc, addr, minAddr)
	}
	if addr%size != 0 {
		return fmt.Errorf("rv32: %q pc=%#x: misaligned %d-byte access to %#x", m.prog.Name, pc, size, addr)
	}
	return nil
}

// Step executes one instruction. Calling Step on a halted machine is an
// error.
func (m *Machine) Step() (Retired, error) {
	var r Retired
	if err := m.step(&r); err != nil {
		return Retired{}, err
	}
	return r, nil
}

// step executes one instruction into *r (overwritten whole); on error
// *r is unspecified and the machine is unchanged.
func (m *Machine) step(r *Retired) error {
	if m.halted {
		return fmt.Errorf("rv32: %q: step after halt", m.prog.Name)
	}
	pc := m.pc
	idx := (pc - TextBase) / 4
	if pc < TextBase || pc%4 != 0 || idx >= uint32(len(m.code)) {
		return fmt.Errorf("rv32: %q: pc %#x outside text", m.prog.Name, pc)
	}
	d := m.code[idx]
	if d.Op == opInvalid {
		// Decode never yields opInvalid for a word it accepts, so this
		// word failed to decode: decode it again for its error.
		_, err := Decode(m.prog.Text[idx])
		return fmt.Errorf("rv32: %q pc=%#x: %w", m.prog.Name, pc, err)
	}
	*r = Retired{PC: pc, D: d}
	next := pc + 4
	rs1, rs2 := m.regs[d.Rs1], m.regs[d.Rs2]
	// wr writes rd; a write to x0 lands in regs[0], which is zeroed
	// again before step returns, so every read sees x0 = 0.
	wr := func(v uint32) { m.regs[d.Rd] = v }
	switch d.Op {
	case LUI:
		wr(uint32(d.Imm))
	case AUIPC:
		wr(pc + uint32(d.Imm))
	case JAL:
		r.Taken = true
		r.Target = pc + uint32(d.Imm)
		wr(pc + 4)
		next = r.Target
	case JALR:
		r.Taken = true
		r.Target = (rs1 + uint32(d.Imm)) &^ 1
		wr(pc + 4)
		next = r.Target
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		r.Target = pc + uint32(d.Imm)
		switch d.Op {
		case BEQ:
			r.Taken = rs1 == rs2
		case BNE:
			r.Taken = rs1 != rs2
		case BLT:
			r.Taken = int32(rs1) < int32(rs2)
		case BGE:
			r.Taken = int32(rs1) >= int32(rs2)
		case BLTU:
			r.Taken = rs1 < rs2
		case BGEU:
			r.Taken = rs1 >= rs2
		}
		if r.Taken {
			next = r.Target
		}
	case LB, LH, LW, LBU, LHU:
		addr := rs1 + uint32(d.Imm)
		size := uint32(1)
		switch d.Op {
		case LH, LHU:
			size = 2
		case LW:
			size = 4
		}
		if err := m.checkAccess(addr, size, pc); err != nil {
			return err
		}
		r.Addr = addr
		var v uint32
		switch d.Op {
		case LB:
			v = uint32(int32(int8(m.loadByte(addr))))
		case LBU:
			v = uint32(m.loadByte(addr))
		case LH:
			v = uint32(int32(int16(uint16(m.loadByte(addr)) | uint16(m.loadByte(addr+1))<<8)))
		case LHU:
			v = uint32(m.loadByte(addr)) | uint32(m.loadByte(addr+1))<<8
		case LW:
			v = m.ReadWord(addr)
		}
		wr(v)
	case SB, SH, SW:
		addr := rs1 + uint32(d.Imm)
		size := uint32(1)
		switch d.Op {
		case SH:
			size = 2
		case SW:
			size = 4
		}
		if err := m.checkAccess(addr, size, pc); err != nil {
			return err
		}
		r.Addr = addr
		switch d.Op {
		case SB:
			m.storeByte(addr, byte(rs2))
		case SH:
			m.storeByte(addr, byte(rs2))
			m.storeByte(addr+1, byte(rs2>>8))
		case SW:
			m.writeWord(addr, rs2)
		}
	case ADDI:
		wr(rs1 + uint32(d.Imm))
	case SLTI:
		wr(boolVal(int32(rs1) < d.Imm))
	case SLTIU:
		wr(boolVal(rs1 < uint32(d.Imm)))
	case XORI:
		wr(rs1 ^ uint32(d.Imm))
	case ORI:
		wr(rs1 | uint32(d.Imm))
	case ANDI:
		wr(rs1 & uint32(d.Imm))
	case SLLI:
		wr(rs1 << uint32(d.Imm))
	case SRLI:
		wr(rs1 >> uint32(d.Imm))
	case SRAI:
		wr(uint32(int32(rs1) >> uint32(d.Imm)))
	case ADD:
		wr(rs1 + rs2)
	case SUB:
		wr(rs1 - rs2)
	case SLL:
		wr(rs1 << (rs2 & 31))
	case SLT:
		wr(boolVal(int32(rs1) < int32(rs2)))
	case SLTU:
		wr(boolVal(rs1 < rs2))
	case XOR:
		wr(rs1 ^ rs2)
	case SRL:
		wr(rs1 >> (rs2 & 31))
	case SRA:
		wr(uint32(int32(rs1) >> (rs2 & 31)))
	case OR:
		wr(rs1 | rs2)
	case AND:
		wr(rs1 & rs2)
	case MUL:
		wr(rs1 * rs2)
	case MULH:
		wr(uint32(uint64(int64(int32(rs1))*int64(int32(rs2))) >> 32))
	case MULHSU:
		wr(uint32(uint64(int64(int32(rs1))*int64(rs2)) >> 32))
	case MULHU:
		wr(uint32(uint64(rs1) * uint64(rs2) >> 32))
	case DIV:
		switch {
		case rs2 == 0:
			wr(^uint32(0))
		case int32(rs1) == -1<<31 && int32(rs2) == -1:
			wr(rs1)
		default:
			wr(uint32(int32(rs1) / int32(rs2)))
		}
	case DIVU:
		if rs2 == 0 {
			wr(^uint32(0))
		} else {
			wr(rs1 / rs2)
		}
	case REM:
		switch {
		case rs2 == 0:
			wr(rs1)
		case int32(rs1) == -1<<31 && int32(rs2) == -1:
			wr(0)
		default:
			wr(uint32(int32(rs1) % int32(rs2)))
		}
	case REMU:
		if rs2 == 0 {
			wr(rs1)
		} else {
			wr(rs1 % rs2)
		}
	case EBREAK:
		r.Halt = true
		m.halted = true
	case ECALL:
		return fmt.Errorf("rv32: %q pc=%#x: ecall is not supported", m.prog.Name, pc)
	default:
		return fmt.Errorf("rv32: %q pc=%#x: unexecutable op %v", m.prog.Name, pc, d.Op)
	}
	m.regs[0] = 0
	m.pc = next
	m.steps++
	return nil
}

func boolVal(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Execute runs p to completion (EBREAK), bounded by maxSteps, and
// returns the final machine state; program correctness tests inspect it.
func Execute(p *Program, maxSteps uint64) (*Machine, error) {
	m, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	for !m.halted {
		if m.steps >= maxSteps {
			return nil, fmt.Errorf("rv32: %q did not halt within %d steps", p.Name, maxSteps)
		}
		if _, err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m, nil
}
