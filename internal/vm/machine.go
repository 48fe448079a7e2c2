package vm

import (
	"fmt"
	"math"
	mathbits "math/bits"

	"carf/internal/isa"
)

// Machine is the architectural state of one R64 hardware thread plus its
// memory. Step executes one instruction at PC; Execute applies the
// semantics of an arbitrary instruction (used by the pipeline, which
// executes functionally in program order at dispatch).
type Machine struct {
	X   [isa.NumRegs]uint64 // integer registers; X[0] reads as zero
	F   [isa.NumRegs]uint64 // floating-point registers, raw IEEE-754 bits
	PC  uint64
	Mem *Memory

	Prog      *Program
	Halted    bool
	InstCount uint64

	// nextIdx is the sequential-fetch hint: the index the next Step is
	// expected to execute (the instruction after the last one, in layout
	// order). Straight-line code hits the hint and skips even the dense
	// table lookup; taken branches miss and fall back to IndexOf.
	nextIdx int
}

// New creates a machine loaded with prog: memory holds the data segments
// (mapped copy-on-write from the program's image, so a page is copied
// only when this machine first writes it), PC is at the entry point,
// and initial registers are seeded.
func New(prog *Program) *Machine {
	m := &Machine{Mem: prog.memory(), Prog: prog, PC: prog.Entry()}
	for r, v := range prog.InitRegs {
		if r != isa.Zero {
			m.X[r] = v
		}
	}
	return m
}

// Effect describes everything one executed instruction did: the next PC,
// the register it wrote (if any), and its memory access (if any). The
// pipeline records Effects at dispatch and replays their timing.
type Effect struct {
	NextPC uint64

	WritesReg bool
	RdClass   isa.RegClass
	Rd        isa.Reg
	RdValue   uint64 // integer value or raw FP bits

	Mem      bool
	Store    bool
	Addr     uint64
	Size     int
	StoreVal uint64

	Branch bool // conditional branch
	Taken  bool // branch outcome (always true for jumps)
	Halt   bool
}

// Step fetches the instruction at PC from the loaded program and executes
// it. It returns the instruction and its effect. Straight-line
// instructions dispatch through the predecoded superblock cache
// (decode.go), skipping Execute's full decode switch; control transfers
// and anything undecodable take the generic path.
func (m *Machine) Step() (isa.Inst, Effect, error) {
	if m.Halted {
		return isa.Inst{}, Effect{}, fmt.Errorf("vm: step after halt")
	}
	i := m.nextIdx
	if i >= len(m.Prog.Code) || m.Prog.AddrOf(i) != m.PC {
		if i = m.Prog.IndexOf(m.PC); i < 0 {
			return isa.Inst{}, Effect{}, fmt.Errorf("vm: PC %#x is not an instruction", m.PC)
		}
	}
	inst := m.Prog.Code[i]
	m.nextIdx = i + 1
	if i < len(m.Prog.dec) {
		if d := &m.Prog.dec[i]; d.cat != decCtl {
			return inst, m.stepDecoded(d, inst), nil
		}
	}
	eff, err := m.Execute(inst)
	return inst, eff, err
}

// Span returns the number of predecoded straight-line instructions
// starting at the current PC — the remaining length of the current
// superblock. Zero when the next instruction terminates a superblock
// (control transfer, HALT, undecodable), when the machine is halted, or
// when PC is not an instruction boundary. A span of k licenses exactly k
// consecutive StepStraight calls.
func (m *Machine) Span() int {
	if m.Halted {
		return 0
	}
	i := m.nextIdx
	if i >= len(m.Prog.Code) || m.Prog.AddrOf(i) != m.PC {
		if i = m.Prog.IndexOf(m.PC); i < 0 {
			return 0
		}
		m.nextIdx = i
	}
	return m.Prog.StraightLen(i)
}

// StepStraight executes the next instruction with no halt, bounds, or
// decodability checks, and therefore cannot fail. Callers must hold a
// straight-line license from Span: after Span returns ≥ k, exactly k
// StepStraight calls are valid with no other machine mutation between
// them.
func (m *Machine) StepStraight() (isa.Inst, Effect) {
	i := m.nextIdx
	inst := m.Prog.Code[i]
	m.nextIdx = i + 1
	return inst, m.stepDecoded(&m.Prog.dec[i], inst)
}

// Run executes until HALT or until limit instructions have run (0 means
// no limit). It returns the number of instructions executed. Whole
// superblocks replay through the decoded fast path; only terminators go
// through the generic Step.
func (m *Machine) Run(limit uint64) (uint64, error) {
	var n uint64
	for !m.Halted {
		if limit != 0 && n >= limit {
			return n, nil
		}
		span := m.Span()
		if limit != 0 {
			if left := limit - n; uint64(span) > left {
				span = int(left)
			}
		}
		for k := 0; k < span; k++ {
			m.StepStraight()
		}
		n += uint64(span)
		if limit != 0 && n >= limit {
			return n, nil
		}
		if _, _, err := m.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func bits(f float64) uint64   { return math.Float64bits(f) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Execute applies inst to the architectural state and returns its effect.
// The PC advances to the effect's NextPC.
func (m *Machine) Execute(inst isa.Inst) (Effect, error) {
	op := inst.Op
	next := m.PC + uint64(inst.Size())
	eff := Effect{NextPC: next}

	x := func(r isa.Reg) uint64 { return m.X[r] } // X[0] kept zero below
	setInt := func(r isa.Reg, v uint64) {
		if r == isa.Zero {
			v = 0
		} else {
			m.X[r] = v
		}
		eff.WritesReg = r != isa.Zero
		eff.RdClass = isa.RegInt
		eff.Rd = r
		eff.RdValue = v
	}
	setFP := func(r isa.Reg, v uint64) {
		m.F[r] = v
		eff.WritesReg = true
		eff.RdClass = isa.RegFP
		eff.Rd = r
		eff.RdValue = v
	}
	load := func(r isa.Reg, size int, signed bool, fp bool) {
		addr := x(inst.Rs1) + uint64(inst.Imm)
		v := m.Mem.Read(addr, size)
		if signed {
			shift := uint(64 - 8*size)
			v = uint64(int64(v<<shift) >> shift)
		}
		eff.Mem, eff.Addr, eff.Size = true, addr, size
		if fp {
			setFP(r, v)
		} else {
			setInt(r, v)
		}
	}
	store := func(size int, val uint64) {
		addr := x(inst.Rs1) + uint64(inst.Imm)
		m.Mem.Write(addr, size, val)
		eff.Mem, eff.Store, eff.Addr, eff.Size, eff.StoreVal = true, true, addr, size, val
	}
	branch := func(taken bool) {
		eff.Branch = true
		eff.Taken = taken
		if taken {
			eff.NextPC = next + uint64(inst.Imm)
		}
	}

	a, b := x(inst.Rs1), x(inst.Rs2)
	fa, fb := f64(m.F[inst.Rs1]), f64(m.F[inst.Rs2])

	switch op {
	case isa.NOP:
	case isa.HALT:
		m.Halted = true
		eff.Halt = true

	case isa.ADD:
		setInt(inst.Rd, a+b)
	case isa.SUB:
		setInt(inst.Rd, a-b)
	case isa.AND:
		setInt(inst.Rd, a&b)
	case isa.OR:
		setInt(inst.Rd, a|b)
	case isa.XOR:
		setInt(inst.Rd, a^b)
	case isa.SLL:
		setInt(inst.Rd, a<<(b&63))
	case isa.SRL:
		setInt(inst.Rd, a>>(b&63))
	case isa.SRA:
		setInt(inst.Rd, uint64(int64(a)>>(b&63)))
	case isa.SLT:
		setInt(inst.Rd, b2u(int64(a) < int64(b)))
	case isa.SLTU:
		setInt(inst.Rd, b2u(a < b))
	case isa.MUL:
		setInt(inst.Rd, a*b)
	case isa.MULHU:
		hi, _ := mul64(a, b)
		setInt(inst.Rd, hi)
	case isa.DIV:
		setInt(inst.Rd, divs(a, b))
	case isa.REM:
		setInt(inst.Rd, rems(a, b))

	case isa.ADDI:
		setInt(inst.Rd, a+uint64(inst.Imm))
	case isa.ANDI:
		setInt(inst.Rd, a&uint64(inst.Imm))
	case isa.ORI:
		setInt(inst.Rd, a|uint64(inst.Imm))
	case isa.XORI:
		setInt(inst.Rd, a^uint64(inst.Imm))
	case isa.SLLI:
		setInt(inst.Rd, a<<(uint64(inst.Imm)&63))
	case isa.SRLI:
		setInt(inst.Rd, a>>(uint64(inst.Imm)&63))
	case isa.SRAI:
		setInt(inst.Rd, uint64(int64(a)>>(uint64(inst.Imm)&63)))
	case isa.SLTI:
		setInt(inst.Rd, b2u(int64(a) < inst.Imm))
	case isa.SLTIU:
		setInt(inst.Rd, b2u(a < uint64(inst.Imm)))
	case isa.LIMM:
		setInt(inst.Rd, uint64(inst.Imm))

	case isa.LD:
		load(inst.Rd, 8, false, false)
	case isa.LW:
		load(inst.Rd, 4, true, false)
	case isa.LWU:
		load(inst.Rd, 4, false, false)
	case isa.LB:
		load(inst.Rd, 1, true, false)
	case isa.LBU:
		load(inst.Rd, 1, false, false)
	case isa.ST:
		store(8, b)
	case isa.SW:
		store(4, b)
	case isa.SB:
		store(1, b)
	case isa.FLD:
		load(inst.Rd, 8, false, true)
	case isa.FSD:
		store(8, m.F[inst.Rs2])

	case isa.BEQ:
		branch(a == b)
	case isa.BNE:
		branch(a != b)
	case isa.BLT:
		branch(int64(a) < int64(b))
	case isa.BGE:
		branch(int64(a) >= int64(b))
	case isa.BLTU:
		branch(a < b)
	case isa.BGEU:
		branch(a >= b)
	case isa.JAL:
		setInt(inst.Rd, next)
		eff.Taken = true
		eff.NextPC = next + uint64(inst.Imm)
	case isa.JALR:
		target := a + uint64(inst.Imm)
		setInt(inst.Rd, next)
		eff.Taken = true
		eff.NextPC = target

	case isa.FADD:
		setFP(inst.Rd, bits(fa+fb))
	case isa.FSUB:
		setFP(inst.Rd, bits(fa-fb))
	case isa.FMUL:
		setFP(inst.Rd, bits(fa*fb))
	case isa.FDIV:
		setFP(inst.Rd, bits(fa/fb))
	case isa.FSQRT:
		setFP(inst.Rd, bits(math.Sqrt(fa)))
	case isa.FABS:
		setFP(inst.Rd, bits(math.Abs(fa)))
	case isa.FNEG:
		setFP(inst.Rd, bits(-fa))
	case isa.FMIN:
		setFP(inst.Rd, bits(math.Min(fa, fb)))
	case isa.FMAX:
		setFP(inst.Rd, bits(math.Max(fa, fb)))
	case isa.FMADD:
		setFP(inst.Rd, bits(f64(m.F[inst.Rd])+fa*fb))
	case isa.FCVTDL:
		setFP(inst.Rd, bits(float64(int64(a))))
	case isa.FCVTLD:
		setInt(inst.Rd, uint64(toInt64(fa)))
	case isa.FEQ:
		setInt(inst.Rd, b2u(fa == fb))
	case isa.FLT:
		setInt(inst.Rd, b2u(fa < fb))
	case isa.FLE:
		setInt(inst.Rd, b2u(fa <= fb))
	case isa.FMVXD:
		setInt(inst.Rd, m.F[inst.Rs1])
	case isa.FMVDX:
		setFP(inst.Rd, a)

	default:
		return Effect{}, fmt.Errorf("vm: unimplemented opcode %v", op)
	}

	m.X[isa.Zero] = 0
	m.PC = eff.NextPC
	m.InstCount++
	return eff, nil
}

// divs implements signed division with RISC-V edge-case semantics:
// division by zero yields -1, and the most-negative-by-minus-one overflow
// yields the dividend.
func divs(a, b uint64) uint64 {
	sa, sb := int64(a), int64(b)
	switch {
	case sb == 0:
		return ^uint64(0)
	case sa == math.MinInt64 && sb == -1:
		return a
	default:
		return uint64(sa / sb)
	}
}

// rems implements signed remainder with RISC-V edge-case semantics.
func rems(a, b uint64) uint64 {
	sa, sb := int64(a), int64(b)
	switch {
	case sb == 0:
		return a
	case sa == math.MinInt64 && sb == -1:
		return 0
	default:
		return uint64(sa % sb)
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) { return mathbits.Mul64(a, b) }

// toInt64 converts a float64 to int64 with saturation, NaN mapping to 0.
func toInt64(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}
