package rv32_test

import (
	"strings"
	"testing"

	"repro/internal/isa/rv32"
)

// asmProgram assembles a program built by fill.
func asmProgram(t *testing.T, name string, init map[int]uint32, data []rv32.Segment, fill func(a *rv32.Asm)) *rv32.Program {
	t.Helper()
	a := rv32.NewAsm()
	fill(a)
	text, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return &rv32.Program{Name: name, Text: text, Data: data, Init: init}
}

// TestExecuteArithmetic runs a straight-line program exercising the ALU,
// M-extension and RISC-V division edge semantics, then checks the
// architectural register results.
func TestExecuteArithmetic(t *testing.T) {
	p := asmProgram(t, "arith", nil, nil, func(a *rv32.Asm) {
		a.Li(rv32.T0, 7)
		a.Li(rv32.T1, -3)
		a.Mul(rv32.T2, rv32.T0, rv32.T1)  // t2 = -21
		a.Div(rv32.T3, rv32.T0, rv32.T1)  // t3 = -2 (truncated)
		a.Rem(rv32.T4, rv32.T0, rv32.T1)  // t4 = 1
		a.Div(rv32.T5, rv32.T0, rv32.X0)  // div by zero -> -1
		a.Rem(rv32.T6, rv32.T0, rv32.X0)  // rem by zero -> rs1
		a.Li(rv32.S2, 0x12345000-0x800)   // lui+addi path of Li
		a.Srai(rv32.S3, rv32.T1, 1)       // -3>>1 = -2 arithmetic
		a.Sltu(rv32.S4, rv32.X0, rv32.T0) // unsigned 0<7 = 1
		a.Ebreak()
	})
	m, err := rv32.Execute(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		reg  int
		want uint32
	}{
		{rv32.T2, uint32(0xFFFFFFEB)}, // -21
		{rv32.T3, uint32(0xFFFFFFFE)}, // -2
		{rv32.T4, 1},
		{rv32.T5, ^uint32(0)},
		{rv32.T6, 7},
		{rv32.S2, 0x12345000 - 0x800},
		{rv32.S3, uint32(0xFFFFFFFE)},
		{rv32.S4, 1},
	} {
		if got := m.Reg(tc.reg); got != tc.want {
			t.Errorf("x%d = %#x, want %#x", tc.reg, got, tc.want)
		}
	}
}

// TestExecuteControlAndMemory exercises labels, a loop, a call/return
// pair and byte/word memory traffic: sum the bytes 1..5 via a subroutine
// and store the result.
func TestExecuteControlAndMemory(t *testing.T) {
	data := []rv32.Segment{{Addr: rv32.DataBase, Data: []byte{1, 2, 3, 4, 5}}}
	p := asmProgram(t, "sum", map[int]uint32{rv32.SP: rv32.StackTop}, data, func(a *rv32.Asm) {
		a.Li(rv32.A0, int32(rv32.DataBase))
		a.Li(rv32.A1, 5)
		a.Jal(rv32.RA, "sum")
		a.Li(rv32.T0, int32(rv32.DataBase+0x100))
		a.Sw(rv32.A0, 0, rv32.T0)
		a.Ebreak()

		a.Label("sum") // a0 = sum of a1 bytes at a0
		a.Li(rv32.T1, 0)
		a.Label("loop")
		a.Beq(rv32.A1, rv32.X0, "done")
		a.Lbu(rv32.T2, 0, rv32.A0)
		a.Add(rv32.T1, rv32.T1, rv32.T2)
		a.Addi(rv32.A0, rv32.A0, 1)
		a.Addi(rv32.A1, rv32.A1, -1)
		a.J("loop")
		a.Label("done")
		a.Mv(rv32.A0, rv32.T1)
		a.Ret()
	})
	m, err := rv32.Execute(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReadWord(rv32.DataBase + 0x100); got != 15 {
		t.Fatalf("stored sum = %d, want 15", got)
	}
}

// TestExecuteFaults pins the executor's guard rails: null/low pointers,
// misalignment, ecall, runaway programs and stepping past halt all
// error without panicking.
func TestExecuteFaults(t *testing.T) {
	build := func(fill func(a *rv32.Asm)) *rv32.Program {
		return asmProgram(t, "fault", nil, nil, fill)
	}
	for _, tc := range []struct {
		name string
		p    *rv32.Program
		want string
	}{
		{"null-load", build(func(a *rv32.Asm) { a.Lw(rv32.T0, 0, rv32.X0); a.Ebreak() }), "below"},
		{"misaligned", build(func(a *rv32.Asm) {
			a.Li(rv32.T0, int32(rv32.DataBase+2))
			a.Lw(rv32.T1, 0, rv32.T0)
			a.Ebreak()
		}), "misaligned"},
		{"ecall", &rv32.Program{Name: "fault", Text: []uint32{0x00000073}}, "ecall"},
		{"runaway", build(func(a *rv32.Asm) { a.Label("x"); a.J("x") }), "did not halt"},
		{"pc-off-text", build(func(a *rv32.Asm) { a.Nop() }), "outside text"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := rv32.Execute(tc.p, 100)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Execute error = %v, want substring %q", err, tc.want)
			}
		})
	}

	if _, err := rv32.NewMachine(&rv32.Program{Name: "empty"}); err == nil {
		t.Error("NewMachine accepted an empty text")
	}
	if _, err := rv32.NewMachine(&rv32.Program{Name: "x0", Text: []uint32{0x00100073}, Init: map[int]uint32{0: 1}}); err == nil {
		t.Error("NewMachine accepted an x0 initialiser")
	}

	// Step after halt is an explicit error.
	m, err := rv32.Execute(&rv32.Program{Name: "halt", Text: []uint32{0x00100073}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Error("Step on a halted machine succeeded")
	}
}

// TestAsmErrors pins the assembler's accumulate-and-report contract.
func TestAsmErrors(t *testing.T) {
	a := rv32.NewAsm()
	a.Addi(rv32.T0, 99, 0) // bad register
	if _, err := a.Assemble(); err == nil {
		t.Error("Assemble accepted a bad register")
	}

	a = rv32.NewAsm()
	a.J("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Error("Assemble accepted an undefined label")
	}

	a = rv32.NewAsm()
	a.Label("dup")
	a.Nop()
	a.Label("dup")
	if _, err := a.Assemble(); err == nil {
		t.Error("Assemble accepted a duplicate label")
	}

	a = rv32.NewAsm()
	a.Label("here")
	if _, err := a.AddrOf("missing", rv32.TextBase); err == nil {
		t.Error("AddrOf resolved a missing label")
	}
	if got, err := a.AddrOf("here", rv32.TextBase); err != nil || got != rv32.TextBase {
		t.Errorf("AddrOf(here) = %#x, %v; want %#x", got, err, rv32.TextBase)
	}
}

// words assembles fill and appends raw text words after it.
func words(t *testing.T, fill func(a *rv32.Asm), raw ...uint32) []uint32 {
	t.Helper()
	a := rv32.NewAsm()
	fill(a)
	text, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return append(text, raw...)
}

// TestExecuteEdges pins the executor's predecoded text and paged memory
// at their edges: an undecodable word faults only when executed (with
// the decoder's message), data above the flat page table and at a
// page's last aligned slot reads back exactly, and the misaligned and
// below-minimum faults keep their messages.
func TestExecuteEdges(t *testing.T) {
	const junk = 0xFFFFFFFF // undecodable: opcode 0x7f

	t.Run("undecodable-never-executed", func(t *testing.T) {
		text := words(t, func(a *rv32.Asm) { a.Li(rv32.T0, 5); a.Ebreak() }, junk)
		m, err := rv32.Execute(&rv32.Program{Name: "skip", Text: text}, 10)
		if err != nil {
			t.Fatalf("a never-executed undecodable word faulted: %v", err)
		}
		if m.Reg(rv32.T0) != 5 {
			t.Fatalf("t0 = %d, want 5", m.Reg(rv32.T0))
		}
	})

	t.Run("undecodable-executed", func(t *testing.T) {
		text := words(t, func(a *rv32.Asm) { a.Nop() }, junk)
		_, err := rv32.Execute(&rv32.Program{Name: "junk", Text: text}, 10)
		want := `rv32: "junk" pc=0x1004: rv32: decode 0xffffffff: unknown opcode 0x7f`
		if err == nil || err.Error() != want {
			t.Fatalf("error %v, want %q", err, want)
		}
	})

	t.Run("above-flat-table", func(t *testing.T) {
		for _, base := range []int32{0x1000000, 0x7FFFF000} {
			p := asmProgram(t, "high", nil, nil, func(a *rv32.Asm) {
				a.Li(rv32.T0, base)
				a.Li(rv32.T1, 0x12345678)
				a.Sw(rv32.T1, 8, rv32.T0)
				a.Lw(rv32.T2, 8, rv32.T0)
				a.Lbu(rv32.T3, 11, rv32.T0)
				a.Sh(rv32.T1, 2, rv32.T0)
				a.Lh(rv32.T4, 2, rv32.T0)
				a.Ebreak()
			})
			m, err := rv32.Execute(p, 100)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				reg  int
				want uint32
			}{{rv32.T2, 0x12345678}, {rv32.T3, 0x12}, {rv32.T4, 0x5678}} {
				if got := m.Reg(c.reg); got != c.want {
					t.Errorf("base %#x: x%d = %#x, want %#x", base, c.reg, got, c.want)
				}
			}
			if got := m.ReadWord(uint32(base) + 8); got != 0x12345678 {
				t.Errorf("base %#x: ReadWord = %#x", base, got)
			}
			if got := m.ReadWord(uint32(base) + 0x100); got != 0 {
				t.Errorf("base %#x: untouched memory reads %#x, want 0", base, got)
			}
		}
	})

	t.Run("last-aligned-slot-of-page", func(t *testing.T) {
		const slot = rv32.DataBase + 0xFFC // the next page starts 4 bytes on
		data := []rv32.Segment{{Addr: slot, Data: []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}}}
		p := asmProgram(t, "slot", nil, data, func(a *rv32.Asm) {
			a.Li(rv32.T0, int32(slot))
			a.Lw(rv32.T1, 0, rv32.T0) // initialised by the segment
			a.Lw(rv32.T2, 4, rv32.T0) // first word of the next page
			a.Lhu(rv32.T3, 2, rv32.T0)
			a.Lb(rv32.T4, 3, rv32.T0)
			a.Li(rv32.T5, -2)
			a.Sw(rv32.T5, 0, rv32.T0)
			a.Lw(rv32.T6, 0, rv32.T0)
			a.Ebreak()
		})
		m, err := rv32.Execute(p, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			reg  int
			want uint32
		}{{rv32.T1, 0x44332211}, {rv32.T2, 0x88776655}, {rv32.T3, 0x4433}, {rv32.T4, 0x44}, {rv32.T6, 0xFFFFFFFE}} {
			if got := m.Reg(c.reg); got != c.want {
				t.Errorf("x%d = %#x, want %#x", c.reg, got, c.want)
			}
		}
		// An unaligned word straddling the page boundary.
		if got := m.ReadWord(slot + 2); got != 0x6655FFFF {
			t.Errorf("ReadWord across pages = %#x, want 0x6655ffff", got)
		}
	})

	t.Run("faults", func(t *testing.T) {
		for _, c := range []struct {
			name string
			fill func(a *rv32.Asm)
			want string
		}{
			{"misaligned-lw", func(a *rv32.Asm) { a.Li(rv32.T0, int32(rv32.DataBase+2)); a.Lw(rv32.T1, 0, rv32.T0) },
				`rv32: "f" pc=0x1008: misaligned 4-byte access to 0x10002`},
			{"misaligned-sh", func(a *rv32.Asm) { a.Li(rv32.T0, int32(rv32.DataBase+1)); a.Sh(rv32.T1, 0, rv32.T0) },
				`rv32: "f" pc=0x1008: misaligned 2-byte access to 0x10001`},
			{"below-min-lw", func(a *rv32.Asm) { a.Li(rv32.T0, 0x800); a.Lw(rv32.T1, 0, rv32.T0) },
				`rv32: "f" pc=0x1008: access to 0x800 below 0x1000`},
			{"below-min-sb", func(a *rv32.Asm) { a.Sb(rv32.T1, 0xFF, rv32.X0) },
				`rv32: "f" pc=0x1000: access to 0xff below 0x1000`},
		} {
			t.Run(c.name, func(t *testing.T) {
				p := asmProgram(t, "f", nil, nil, func(a *rv32.Asm) { c.fill(a); a.Ebreak() })
				_, err := rv32.Execute(p, 100)
				if err == nil || err.Error() != c.want {
					t.Fatalf("error %v, want %q", err, c.want)
				}
			})
		}
	})
}
