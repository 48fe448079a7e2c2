package pipeline

import (
	"context"
	"testing"

	"carf/internal/core"
	"carf/internal/isa"
	"carf/internal/regfile"
	"carf/internal/vm"
	"carf/internal/workload"
)

func carfModel() regfile.Model { return core.New(core.DefaultParams()) }

// runKernel simulates kernel k on model and verifies functional
// correctness plus basic timing sanity.
func runKernel(t *testing.T, k workload.Kernel, model regfile.Model) Stats {
	t.Helper()
	cpu := New(DefaultConfig(), k.Prog, model)
	st, err := cpu.Run()
	if err != nil {
		t.Fatalf("%s on %s: %v", k.Name, model.Name(), err)
	}
	if got := cpu.mach.X[workload.ResultReg]; got != k.Expected {
		t.Errorf("%s on %s: result %#x, want %#x", k.Name, model.Name(), got, k.Expected)
	}
	if st.ValueMismatches != 0 {
		t.Errorf("%s on %s: %d register-file reconstruction mismatches",
			k.Name, model.Name(), st.ValueMismatches)
	}
	if st.IPC() <= 0.05 || st.IPC() > float64(DefaultConfig().IssueWidth) {
		t.Errorf("%s on %s: implausible IPC %.3f", k.Name, model.Name(), st.IPC())
	}
	return st
}

func TestAllKernelsOnAllModels(t *testing.T) {
	scale := 0.1
	if testing.Short() {
		scale = 0.03
	}
	for _, r := range workload.AllKernels(scale) {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			k, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			base := runKernel(t, k, regfile.Baseline())
			unl := runKernel(t, k, regfile.Unlimited())
			carf := runKernel(t, k, carfModel())

			// The baseline tracks the unlimited file closely (§4; bfs
			// is the one register-pressure-bound outlier), and the
			// content-aware file loses only a little IPC.
			if base.IPC() < 0.80*unl.IPC() {
				t.Errorf("baseline IPC %.3f far below unlimited %.3f", base.IPC(), unl.IPC())
			}
			if carf.IPC() < 0.80*base.IPC() {
				t.Errorf("content-aware IPC %.3f implausibly below baseline %.3f",
					carf.IPC(), base.IPC())
			}
			if carf.IPC() > 1.02*base.IPC() {
				t.Errorf("content-aware IPC %.3f above baseline %.3f", carf.IPC(), base.IPC())
			}
		})
	}
}

func TestBypassRateHigherWithDeeperWriteback(t *testing.T) {
	k, err := workload.ByName("qsort", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	base := runKernel(t, k, regfile.Baseline())
	carf := runKernel(t, k, carfModel())
	if carf.BypassRate() <= base.BypassRate() {
		t.Errorf("content-aware bypass rate %.3f not above baseline %.3f (Table 2 direction)",
			carf.BypassRate(), base.BypassRate())
	}
	if base.BypassRate() <= 0.05 || base.BypassRate() >= 0.95 {
		t.Errorf("baseline bypass rate %.3f implausible", base.BypassRate())
	}
}

func TestOperandCombosRecorded(t *testing.T) {
	k, err := workload.ByName("hashprobe", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := runKernel(t, k, carfModel())
	var total uint64
	for i := range st.OperandCombos {
		for j := range st.OperandCombos[i] {
			total += st.OperandCombos[i][j]
		}
	}
	if total == 0 {
		t.Error("no operand combinations recorded on a content-aware run")
	}
	// Conventional runs record nothing (no classifier).
	st2 := runKernel(t, k, regfile.Baseline())
	var total2 uint64
	for i := range st2.OperandCombos {
		for j := range st2.OperandCombos[i] {
			total2 += st2.OperandCombos[i][j]
		}
	}
	if total2 != 0 {
		t.Error("operand combinations recorded on a conventional run")
	}
}

func TestBranchStats(t *testing.T) {
	k, err := workload.ByName("qsort", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := runKernel(t, k, regfile.Baseline())
	if st.Branches == 0 {
		t.Fatal("no branches counted")
	}
	if st.Mispredicts == 0 {
		t.Error("zero mispredicts on data-dependent branches is implausible")
	}
	if st.Mispredicts >= st.Branches/2 {
		t.Errorf("mispredict rate %.2f implausibly high",
			float64(st.Mispredicts)/float64(st.Branches))
	}
}

func TestCARFStatsFlow(t *testing.T) {
	k, err := workload.ByName("listchase", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	model := core.New(core.DefaultParams())
	cpu := New(DefaultConfig(), k.Prog, model)
	if _, err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	cs := model.Stats()
	var reads uint64
	for _, r := range cs.ReadsByType {
		reads += r
	}
	if reads == 0 {
		t.Error("no typed reads recorded")
	}
	if cs.WritesByType[regfile.TypeShort] == 0 {
		t.Error("pointer-chasing kernel produced no short writes")
	}
	if cs.ShortInstalls == 0 {
		t.Error("no short-file installs from load/store addresses")
	}
	if cs.RobIntervals == 0 {
		t.Error("ROB intervals never ticked")
	}
}

// TestMaxInstructions bounds a run.
func TestMaxInstructions(t *testing.T) {
	k, err := workload.ByName("crc64", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInstructions = 5000
	cpu := New(cfg, k.Prog, regfile.Baseline())
	st, err := cpu.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions < 5000 || st.Instructions > 5000+uint64(cfg.CommitWidth) {
		t.Errorf("instructions = %d, want ~5000", st.Instructions)
	}
}

// TestSampler exercises the live-value sampling hook.
type countingSampler struct {
	samples int
	values  int
}

func (s *countingSampler) Sample(v []uint64) {
	s.samples++
	s.values += len(v)
}

func TestSampler(t *testing.T) {
	k, err := workload.ByName("histo", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, regfile.Baseline())
	s := &countingSampler{}
	st, err := cpu.RunContext(context.Background(), Observe{Live: s, LivePeriod: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s.samples == 0 {
		t.Fatal("sampler never invoked")
	}
	if s.values/s.samples < isa.NumRegs/2 {
		t.Errorf("average live values %d implausibly low", s.values/s.samples)
	}
	if want := st.Cycles / 64; uint64(s.samples) < want || uint64(s.samples) > want+1 {
		t.Errorf("%d samples over %d cycles at period 64", s.samples, st.Cycles)
	}

	// A live sampler without a period is a caller error, not a run that
	// silently samples nothing.
	cpu = New(DefaultConfig(), k.Prog, regfile.Baseline())
	if _, err := cpu.RunContext(context.Background(), Observe{Live: s}); err == nil {
		t.Error("RunContext accepted Observe.Live with LivePeriod 0")
	}
}

// TestTinyProgram checks in-order semantics end to end on a handmade
// program with a RAW chain, a store-load pair, and a call/return.
func TestTinyProgram(t *testing.T) {
	b := workload.NewBuilder("tiny")
	b.Li(1, 10)
	b.Addi(2, 1, 5)     // 15
	b.Add(3, 2, 2)      // 30
	b.La(4, 0x60000000) // scratch well away from other segments
	b.St(3, 4, 0)
	b.Ld(5, 4, 0) // 30, must see the store
	b.Call("double")
	b.Raw(isa.Inst{Op: isa.ADDI, Rd: 28, Rs1: 5, Imm: 0})
	b.Halt()
	b.Label("double")
	b.Add(5, 5, 5) // 60
	b.Ret()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	for _, model := range []regfile.Model{regfile.Baseline(), carfModel()} {
		cpu := New(DefaultConfig(), prog, model)
		st, err := cpu.Run()
		if err != nil {
			t.Fatalf("%s: %v", model.Name(), err)
		}
		if got := cpu.mach.X[28]; got != 60 {
			t.Errorf("%s: x28 = %d, want 60", model.Name(), got)
		}
		if st.Instructions != 11 {
			t.Errorf("%s: committed %d instructions, want 11", model.Name(), st.Instructions)
		}
	}
}

// TestCARFDeeperPipelineCostsCycles: same program, the content-aware
// configuration should take at least as many cycles as the baseline
// (extra read stage lengthens the branch-resolution loop).
func TestCARFDeeperPipelineCostsCycles(t *testing.T) {
	k, err := workload.ByName("qsort", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	base := runKernel(t, k, regfile.Baseline())
	carf := runKernel(t, k, carfModel())
	if carf.Cycles < base.Cycles {
		t.Errorf("content-aware run took fewer cycles (%d) than baseline (%d)",
			carf.Cycles, base.Cycles)
	}
}

// TestRecoveryUnderTinyLongFile: a pathologically small long file must
// still complete correctly, exercising Recovery State and (possibly)
// forced spills.
func TestRecoveryUnderTinyLongFile(t *testing.T) {
	p := core.DefaultParams()
	p.NumLong = 4
	k, err := workload.ByName("crc64", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	model := core.New(p)
	cpu := New(DefaultConfig(), k.Prog, model)
	st, err := cpu.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := cpu.mach.X[workload.ResultReg]; got != k.Expected {
		t.Errorf("result %#x, want %#x", got, k.Expected)
	}
	if st.ValueMismatches != 0 {
		t.Errorf("%d reconstruction mismatches under pressure", st.ValueMismatches)
	}
	if model.Stats().RecoveryEvents == 0 {
		t.Error("tiny long file never entered Recovery State on a CRC workload")
	}
}

func TestVMGoldenUnaffectedByTiming(t *testing.T) {
	// The same kernel must produce identical architectural results on
	// the raw VM and under the pipeline.
	k, err := workload.ByName("vmloop", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(k.Prog)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, regfile.Baseline())
	if _, err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	if m.X[workload.ResultReg] != cpu.mach.X[workload.ResultReg] {
		t.Error("pipeline and VM disagree on the architectural result")
	}
}
