package asm

import (
	"strings"
	"testing"

	"carf/internal/isa"
	"carf/internal/vm"
	"carf/internal/workload"
)

// run assembles and executes src, returning the machine.
func run(t *testing.T, src string) *vm.Machine {
	t.Helper()
	prog, err := Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Fatal("program did not halt")
	}
	return m
}

func TestSumLoop(t *testing.T) {
	m := run(t, `
; sum 1..10
        li   x1, 10
        li   x2, 0
loop:   add  x2, x2, x1
        addi x1, x1, -1
        bnez x1, loop
        mv   x28, x2
        halt
`)
	if m.X[28] != 55 {
		t.Errorf("x28 = %d, want 55", m.X[28])
	}
}

func TestDataDirectivesAndLoads(t *testing.T) {
	m := run(t, `
        la   x1, table
        ld   x2, 0(x1)
        ld   x3, 8(x1)
        la   x4, msg
        lbu  x5, 0(x4)
        lbu  x6, 1(x4)
        la   x7, pi
        fld  f1, 0(x7)
        fcvt.l.d x8, f1
        la   x9, pad
        ld   x10, 0(x9)
        halt
.data 0x600000
table:  .word 0x1122, 3
msg:    .ascii "Hi"
        .byte 0
pi:     .double 3.5
pad:    .zero 16
`)
	if m.X[2] != 0x1122 || m.X[3] != 3 {
		t.Errorf("words: %#x %#x", m.X[2], m.X[3])
	}
	if m.X[5] != 'H' || m.X[6] != 'i' {
		t.Errorf("ascii: %c %c", m.X[5], m.X[6])
	}
	if m.X[8] != 3 {
		t.Errorf("double truncated = %d", m.X[8])
	}
	if m.X[10] != 0 {
		t.Errorf("zero fill = %#x", m.X[10])
	}
}

func TestCallRetAndAliases(t *testing.T) {
	m := run(t, `
        .reg sp 0x7ffff7e00000
        li   x1, 21
        call double
        mv   x28, x1
        halt
double: add  x1, x1, x1
        ret
`)
	if m.X[28] != 42 {
		t.Errorf("x28 = %d", m.X[28])
	}
	if m.X[29] != 0x7ffff7e00000 {
		t.Errorf("sp seed = %#x", m.X[29])
	}
}

func TestJumpTableViaJr(t *testing.T) {
	// Build a one-entry jump table at runtime (la of a code label),
	// store it to memory, reload, and jump through it.
	m := run(t, `
        la   x1, tbl
        la   x2, target1
        st   x2, 0(x1)
        ld   x3, 0(x1)
        jr   x3
target0: li x28, 1
        halt
target1: li x28, 2
        halt
.data 0x600100
tbl:    .word 0
`)
	if m.X[28] != 2 {
		t.Errorf("x28 = %d, want handler 2", m.X[28])
	}
}

func TestOrgAndNumericBranch(t *testing.T) {
	prog, err := Assemble("t", `
.org 0x500000
        li  x1, 1
        beq x1, x1, 8   ; skip the next 8-byte instruction
        halt
        li  x28, 7
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Entry() != 0x500000 {
		t.Errorf("entry = %#x", prog.Entry())
	}
	m := vm.New(prog)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.X[28] != 7 {
		t.Errorf("x28 = %d, want 7 (branch should skip the first halt)", m.X[28])
	}
}

func TestFPArithmetic(t *testing.T) {
	m := run(t, `
        la   x1, vals
        fld  f1, 0(x1)
        fld  f2, 8(x1)
        fadd f3, f1, f2
        fmul f4, f3, f3
        fcvt.l.d x28, f4
        halt
.data 0x600000
vals:   .double 1.5, 2.5
`)
	if m.X[28] != 16 {
		t.Errorf("x28 = %d, want 16", m.X[28])
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":   "\tfrobnicate x1, x2\n\thalt",
		"bad register":       "\tadd x1, x2, x99\n\thalt",
		"fp/int mismatch":    "\tadd x1, f2, x3\n\thalt",
		"undefined symbol":   "\tj nowhere\n\thalt",
		"duplicate label":    "a:\tnop\na:\thalt",
		"data branch target": "\tj buf\n\thalt\n.data 0x600000\nbuf: .word 1",
		"instr in data":      ".data 0x600000\n\tadd x1, x2, x3",
		"word outside data":  "\t.word 5",
		"operand count":      "\tadd x1, x2\n\thalt",
		"bad mem operand":    "\tld x1, x2\n\thalt",
		"org after code":     "\tnop\n.org 0x100\n\thalt",
		"byte range":         ".data 0x600000\n\t.byte 300",
		"bad directive":      ".bogus 12",
		"imm out of range":   "\taddi x1, x1, 0x4000000000\n\thalt",
	}
	for name, src := range cases {
		if _, err := Assemble("t", src); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("t", "\tnop\n\tnop\n\tbogus x1\n\thalt")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should name line 3: %v", err)
	}
}

func TestCommentStyles(t *testing.T) {
	m := run(t, `
        li x28, 3   ; semicolon
        nop         # hash
        nop         // slashes
        halt
`)
	if m.X[28] != 3 {
		t.Error("comments broke parsing")
	}
}

// TestKernelRoundTrip is the big property: disassemble every benchmark
// kernel's code to text, reassemble it, and require a bit-identical
// instruction image. This exercises every opcode and operand form the
// kernels use, in both directions.
func TestKernelRoundTrip(t *testing.T) {
	for _, r := range workload.AllKernels(0.02) {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			k, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			src := Source(k.Prog.Code)
			prog2, err := Assemble(k.Name, src)
			if err != nil {
				t.Fatalf("reassembly failed: %v", err)
			}
			img1, err := isa.EncodeProgram(k.Prog.Code)
			if err != nil {
				t.Fatal(err)
			}
			img2, err := isa.EncodeProgram(prog2.Code)
			if err != nil {
				t.Fatal(err)
			}
			if len(img1) != len(img2) {
				t.Fatalf("image sizes differ: %d vs %d", len(img1), len(img2))
			}
			for i := range img1 {
				if img1[i] != img2[i] {
					t.Fatalf("images differ at byte %d", i)
				}
			}
		})
	}
}

func TestListing(t *testing.T) {
	prog, err := Assemble("t", "\tli x1, 5\n\thalt")
	if err != nil {
		t.Fatal(err)
	}
	out := Listing(prog)
	if !strings.Contains(out, "0x400000") || !strings.Contains(out, "limm x1, 0x5") {
		t.Errorf("listing = %q", out)
	}
}
