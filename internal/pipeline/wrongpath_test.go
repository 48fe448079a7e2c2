package pipeline

import (
	"testing"

	"carf/internal/core"
	"carf/internal/regfile"
	"carf/internal/workload"
)

func wrongPathConfig() Config {
	cfg := DefaultConfig()
	cfg.WrongPath = true
	return cfg
}

// TestWrongPathCorrectness: with phantom execution enabled, every kernel
// must still produce the exact architectural result on both the baseline
// and the content-aware file, with zero reconstruction mismatches — the
// squash path must fully undo speculation.
func TestWrongPathCorrectness(t *testing.T) {
	for _, r := range workload.AllKernels(0.05) {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			k, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range []regfile.Model{regfile.Baseline(), core.New(core.DefaultParams())} {
				cpu := New(wrongPathConfig(), k.Prog, model)
				st, err := cpu.Run()
				if err != nil {
					t.Fatalf("%s: %v", model.Name(), err)
				}
				if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
					t.Errorf("%s: result %#x, want %#x", model.Name(), got, k.Expected)
				}
				if st.ValueMismatches != 0 {
					t.Errorf("%s: %d reconstruction mismatches", model.Name(), st.ValueMismatches)
				}
				if st.Mispredicts > 0 && st.Squashes == 0 {
					t.Errorf("%s: %d mispredicts but no squashes", model.Name(), st.Mispredicts)
				}
			}
		})
	}
}

// TestWrongPathActivity: on a branchy kernel, phantom instructions are
// fetched and fully squashed, tag accounting balances (the next run
// starts from a clean file), and wrong-path mode costs no correctness.
func TestWrongPathActivity(t *testing.T) {
	k, err := workload.ByName("qsort", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	model := core.New(core.DefaultParams())
	cpu := New(wrongPathConfig(), k.Prog, model)
	st, err := cpu.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.WrongPathFetched == 0 {
		t.Fatal("no wrong-path instructions fetched on a mispredict-heavy kernel")
	}
	if st.WrongPathSquashed != st.WrongPathFetched {
		t.Errorf("fetched %d phantoms but squashed %d", st.WrongPathFetched, st.WrongPathSquashed)
	}
	if st.Squashes == 0 || st.Squashes > st.Mispredicts {
		t.Errorf("squashes %d vs mispredicts %d", st.Squashes, st.Mispredicts)
	}
}

// TestWrongPathCostsEnergyNotCorrectness compares both modes: wrong-path
// execution must add register file traffic (the fidelity gap the mode
// closes) while leaving the architectural result identical. IPC may move
// slightly in either direction (cache pollution vs. warm-up prefetch).
func TestWrongPathCostsEnergyNotCorrectness(t *testing.T) {
	k, err := workload.ByName("treeinsert", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	stall := core.New(core.DefaultParams())
	cpuA := New(DefaultConfig(), k.Prog, stall)
	stA, err := cpuA.Run()
	if err != nil {
		t.Fatal(err)
	}
	spec := core.New(core.DefaultParams())
	cpuB := New(wrongPathConfig(), k.Prog, spec)
	stB, err := cpuB.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stA.Instructions != stB.Instructions {
		t.Errorf("committed counts differ: %d vs %d", stA.Instructions, stB.Instructions)
	}
	var accA, accB uint64
	for _, f := range stall.Files() {
		accA += f.Reads + f.Writes
	}
	for _, f := range spec.Files() {
		accB += f.Reads + f.Writes
	}
	if accB <= accA {
		t.Errorf("wrong-path mode did not add register file accesses (%d vs %d)", accB, accA)
	}
}

// TestWrongPathUnderPressure: tiny long file + wrong-path speculation is
// the nastiest interaction (phantom long writes competing for entries);
// it must stay architecturally exact.
func TestWrongPathUnderPressure(t *testing.T) {
	p := core.DefaultParams()
	p.NumLong = 6
	k, err := workload.ByName("crc64", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	model := core.New(p)
	cpu := New(wrongPathConfig(), k.Prog, model)
	st, err := cpu.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
		t.Errorf("result %#x, want %#x", got, k.Expected)
	}
	if st.ValueMismatches != 0 {
		t.Errorf("%d mismatches", st.ValueMismatches)
	}
}
