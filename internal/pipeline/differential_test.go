package pipeline

import (
	"context"
	"math/rand"
	"testing"

	"carf/internal/core"
	"carf/internal/isa"
	"carf/internal/regfile"
	"carf/internal/vm"
	"carf/internal/workload"
)

// genProgram builds a random but architecturally well-formed program:
// straight-line blocks of ALU/memory traffic linked by bounded countdown
// loops, over a scratch heap region. The generator never reads
// uninitialized FP state into control flow, never writes x0, and always
// terminates.
func genProgram(seed int64, blocks int) *vm.Program {
	r := rand.New(rand.NewSource(seed))
	b := workload.NewBuilder("fuzz")
	scratch := uint64(workload.HeapBase)
	b.La(1, scratch)
	b.Li(2, int64(r.Uint64()>>32))
	b.Li(3, int64(r.Uint64()>>40))
	b.Fcvtdl(1, 2)
	b.Fcvtdl(2, 3)

	// Registers x4..x20 hold random-but-defined values.
	for rreg := 4; rreg <= 20; rreg++ {
		b.Li(isa.Reg(rreg), int64(r.Uint64()>>uint(r.Intn(48))))
	}

	aluOps := []func(rd, a, c isa.Reg){
		b.Add, b.Sub, b.And, b.Or, b.Xor, b.Mul, b.Slt, b.Sltu,
	}
	fpOps := []func(rd, a, c isa.Reg){b.Fadd, b.Fsub, b.Fmul, b.Fmin, b.Fmax}

	for blk := 0; blk < blocks; blk++ {
		label := "blk" + string(rune('a'+blk%26)) + string(rune('a'+blk/26))
		iters := 2 + r.Intn(6)
		b.Li(21, int64(iters))
		b.Label(label)
		for n := 0; n < 4+r.Intn(10); n++ {
			rd := isa.Reg(4 + r.Intn(17))
			a := isa.Reg(4 + r.Intn(17))
			c := isa.Reg(4 + r.Intn(17))
			switch r.Intn(10) {
			case 0: // store to scratch
				off := int64(r.Intn(64) * 8)
				b.St(a, 1, off)
			case 1: // load from scratch
				off := int64(r.Intn(64) * 8)
				b.Ld(rd, 1, off)
			case 2: // shift by bounded immediate
				b.Slli(rd, a, int64(r.Intn(32)))
			case 3:
				b.Srli(rd, a, int64(r.Intn(32)))
			case 4: // immediate ALU
				b.Addi(rd, a, int64(r.Intn(1<<12)-1<<11))
			case 5: // FP traffic (independent of control flow)
				f1 := isa.Reg(1 + r.Intn(6))
				f2 := isa.Reg(1 + r.Intn(6))
				f3 := isa.Reg(1 + r.Intn(6))
				fpOps[r.Intn(len(fpOps))](f1, f2, f3)
			case 6: // fp<->int moves keep both files busy
				b.Fmvxd(rd, isa.Reg(1+r.Intn(6)))
			default:
				aluOps[r.Intn(len(aluOps))](rd, a, c)
			}
		}
		b.Addi(21, 21, -1)
		b.Bnez(21, label)
	}
	// Fold the register state into x28.
	b.Li(28, 0)
	for rreg := 4; rreg <= 20; rreg++ {
		b.Xor(28, 28, isa.Reg(rreg))
	}
	b.Halt()
	return b.MustBuild()
}

// TestDifferentialRandomPrograms runs random programs on the golden VM
// and on the pipeline with every register file organization; the
// architectural results must agree exactly, and the content-aware
// reconstruction check must stay clean.
func TestDifferentialRandomPrograms(t *testing.T) {
	models := []func() regfile.Model{
		func() regfile.Model { return regfile.Baseline() },
		func() regfile.Model { return regfile.Unlimited() },
		func() regfile.Model { return core.New(core.DefaultParams()) },
		func() regfile.Model {
			p := core.DefaultParams()
			p.CAMShort = true
			return core.New(p)
		},
		func() regfile.Model {
			p := core.DefaultParams()
			p.NumLong = 6 // savage long pressure: recovery + spills
			return core.New(p)
		},
		func() regfile.Model {
			p := core.DefaultParams()
			p.ShortFree = core.FreeRefCount
			return core.New(p)
		},
	}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		prog := genProgram(seed, 6)
		ref := vm.New(prog)
		if _, err := ref.Run(5_000_000); err != nil {
			t.Fatalf("seed %d: vm: %v", seed, err)
		}
		if !ref.Halted {
			t.Fatalf("seed %d: vm did not halt", seed)
		}
		for mi, mk := range models {
			cpu := New(DefaultConfig(), prog, mk())
			st, err := cpu.Run()
			if err != nil {
				t.Fatalf("seed %d model %d: %v", seed, mi, err)
			}
			if st.ValueMismatches != 0 {
				t.Errorf("seed %d model %d: %d reconstruction mismatches", seed, mi, st.ValueMismatches)
			}
			for rreg := 0; rreg < isa.NumRegs; rreg++ {
				if cpu.mach.X[rreg] != ref.X[rreg] {
					t.Fatalf("seed %d model %d: x%d = %#x, vm has %#x",
						seed, mi, rreg, cpu.mach.X[rreg], ref.X[rreg])
				}
				if cpu.mach.F[rreg] != ref.F[rreg] {
					t.Fatalf("seed %d model %d: f%d differs", seed, mi, rreg)
				}
			}
		}
	}
}

// TestSMTBothThreadsCorrect runs the two-thread machine on kernel pairs
// and verifies both architectural results plus basic fairness.
func TestSMTBothThreadsCorrect(t *testing.T) {
	pairs := [][2]string{{"histo", "crc64"}, {"qsort", "saxpy"}}
	for _, pair := range pairs {
		ka, err := workload.ByName(pair[0], 0.05)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := workload.ByName(pair[1], 0.05)
		if err != nil {
			t.Fatal(err)
		}
		model := core.New(core.DefaultParams())
		smt := NewSMT(DefaultConfig(), [2]*vm.Program{ka.Prog, kb.Prog}, model)
		sts, err := smt.RunContext(context.Background(), Observe{})
		if err != nil {
			t.Fatalf("%v: %v", pair, err)
		}
		for i, k := range []workload.Kernel{ka, kb} {
			if got := smt.Thread(i).Machine().X[workload.ResultReg]; got != k.Expected {
				t.Errorf("%v thread %d (%s): result %#x, want %#x", pair, i, k.Name, got, k.Expected)
			}
			if sts[i].ValueMismatches != 0 {
				t.Errorf("%v thread %d: %d reconstruction mismatches", pair, i, sts[i].ValueMismatches)
			}
			if sts[i].IPC() <= 0 {
				t.Errorf("%v thread %d: IPC %.3f", pair, i, sts[i].IPC())
			}
		}
		if smt.Cycles() == 0 {
			t.Error("SMT cycle counter idle")
		}
	}
}

// TestSMTPolicies: both priority policies must preserve architectural
// results; under a small shared Long file, the long-aware policy should
// not be slower than round-robin on a long-heavy pairing.
func TestSMTPolicies(t *testing.T) {
	ka, err := workload.ByName("crc64", 0.08)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := workload.ByName("hashprobe", 0.08)
	if err != nil {
		t.Fatal(err)
	}
	results := map[SMTPolicy]float64{}
	for _, pol := range []SMTPolicy{PolicyRoundRobin, PolicyLongAware} {
		p := core.DefaultParams()
		p.NumLong = 24
		model := core.New(p)
		smt := NewSMT(DefaultConfig(), [2]*vm.Program{ka.Prog, kb.Prog}, model)
		smt.SetPolicy(pol)
		sts, err := smt.RunContext(context.Background(), Observe{})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		for i, k := range []workload.Kernel{ka, kb} {
			if got := smt.Thread(i).Machine().X[workload.ResultReg]; got != k.Expected {
				t.Errorf("%s thread %d: result %#x, want %#x", pol, i, got, k.Expected)
			}
		}
		results[pol] = sts[0].IPC() + sts[1].IPC()
	}
	if results[PolicyLongAware] < 0.85*results[PolicyRoundRobin] {
		t.Errorf("long-aware policy collapsed throughput: %.3f vs %.3f",
			results[PolicyLongAware], results[PolicyRoundRobin])
	}
	if PolicyRoundRobin.String() != "round-robin" || PolicyLongAware.String() != "long-aware" {
		t.Error("policy names")
	}
}
