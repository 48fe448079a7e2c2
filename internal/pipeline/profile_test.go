package pipeline

import (
	"context"
	"testing"

	"carf/internal/core"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/workload"
)

// runProfiled simulates kernel name on model with the profiler attached
// and cross-checks the profile against the run's own statistics.
func runProfiled(t *testing.T, name string, model regfile.Model, cfg Config) (Stats, *profile.Profiler) {
	t.Helper()
	k, err := workload.ByName(name, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(cfg, k.Prog, model)
	prof := new(profile.Profiler)
	st, err := cpu.RunContext(context.Background(), Observe{Profile: prof})
	if err != nil {
		t.Fatalf("%s on %s: %v", name, model.Name(), err)
	}
	return st, prof
}

// TestProfilerSlotIdentity asserts the acceptance-criteria conservation
// law: the CPI-stack categories sum to exactly cycles × commit width,
// and the stack's cycle count matches the pipeline's.
func TestProfilerSlotIdentity(t *testing.T) {
	for _, name := range []string{"histo", "qsort", "hashprobe"} {
		for _, mk := range []struct {
			org   string
			model func() regfile.Model
		}{
			{"baseline", func() regfile.Model { return regfile.Baseline() }},
			{"content-aware", carfModel},
		} {
			st, prof := runProfiled(t, name, mk.model(), DefaultConfig())
			if err := prof.Stack.CheckIdentity(); err != nil {
				t.Errorf("%s/%s: %v", name, mk.org, err)
			}
			if prof.Stack.Cycles != st.Cycles {
				t.Errorf("%s/%s: stack counted %d cycles, pipeline %d",
					name, mk.org, prof.Stack.Cycles, st.Cycles)
			}
			if prof.Stack.Width != DefaultConfig().CommitWidth {
				t.Errorf("%s/%s: stack width %d", name, mk.org, prof.Stack.Width)
			}
			// The final halting cycle commits but is not counted (the
			// pipeline returns before now++), so the stack's useful
			// slots may trail total instructions by at most one commit
			// group.
			if got := prof.Stack.Instructions(); got > st.Instructions ||
				got+uint64(prof.Stack.Width) < st.Instructions {
				t.Errorf("%s/%s: stack saw %d committed slots, run committed %d",
					name, mk.org, got, st.Instructions)
			}
		}
	}
}

// TestProfilerPerPCReconciles cross-checks the per-PC aggregates
// against the pipeline's global counters.
func TestProfilerPerPCReconciles(t *testing.T) {
	st, prof := runProfiled(t, "qsort", regfile.Baseline(), DefaultConfig())
	tot := prof.PCs.Totals()
	if tot.Committed != st.Instructions {
		t.Errorf("per-PC commits %d, pipeline %d", tot.Committed, st.Instructions)
	}
	want := st.Mispredicts + st.IndirectResolve
	if tot.Mispredicts != want {
		t.Errorf("per-PC mispredicts %d, pipeline %d+%d", tot.Mispredicts, st.Mispredicts, st.IndirectResolve)
	}
	if tot.Committed == 0 || tot.Mispredicts == 0 {
		t.Fatalf("degenerate run: %+v", tot)
	}
	// Every instruction in the top list must have really committed.
	for _, s := range prof.PCs.Top(10) {
		if s.Committed == 0 {
			t.Errorf("inactive pc %#x in Top", s.PC)
		}
	}
}

// TestProfilerDataMissAttribution ties the per-PC data-miss counts to
// the cache hierarchy's own L1D miss counter. Without wrong-path mode
// every data access carries a real PC, so the counts match exactly.
func TestProfilerDataMissAttribution(t *testing.T) {
	k, err := workload.ByName("listchase", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, regfile.Baseline())
	prof := new(profile.Profiler)
	if _, err := cpu.RunContext(context.Background(), Observe{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	tot := prof.PCs.Totals()
	l1d := cpu.Hierarchy().L1D.Stats()
	if got := tot.L2Misses + tot.MemMisses; got != l1d.Misses {
		t.Errorf("per-PC data misses %d, L1D counted %d", got, l1d.Misses)
	}
	if tot.L2Misses+tot.MemMisses == 0 {
		t.Fatal("listchase produced no data misses")
	}
}

// TestProfilerWriteAttribution checks that the content-aware file's
// write outcomes land in the per-PC profile: every class observed by
// the profiler is bounded by the model's own per-class totals (the
// architectural-setup writes in New predate the profiler).
func TestProfilerWriteAttribution(t *testing.T) {
	model := core.New(core.DefaultParams())
	k, err := workload.ByName("hashprobe", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, model)
	prof := new(profile.Profiler)
	if _, err := cpu.RunContext(context.Background(), Observe{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	tot := prof.PCs.Totals()
	var seen uint64
	for typ := regfile.TypeSimple; typ <= regfile.TypeLong; typ++ {
		n := tot.Writes[typ]
		seen += n
		if max := model.Stats().WritesByType[typ]; n > max {
			t.Errorf("profiled %d %s writes, model performed only %d", n, typ, max)
		}
	}
	if seen == 0 {
		t.Fatal("no register writes attributed")
	}
	if tot.Writes[regfile.TypeNone] != 0 {
		t.Errorf("content-aware run attributed %d unclassified writes", tot.Writes[regfile.TypeNone])
	}
}

// TestProfilerRegisterFilePressure forces Long-file pressure with a
// small K and checks the stack charges register-file categories.
func TestProfilerRegisterFilePressure(t *testing.T) {
	p := core.DefaultParams()
	p.NumLong = 16
	model := core.New(p)
	st, prof := runProfiled(t, "hashprobe", model, DefaultConfig())
	if err := prof.Stack.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if st.LongStallCycles == 0 && st.RecoveryStallCycles == 0 {
		t.Skip("K=16 produced no register file pressure at this scale")
	}
	if prof.Stack.RFStallSlots() == 0 {
		t.Errorf("pipeline reported %d long-stall and %d recovery-stall cycles but the stack charged no RF slots",
			st.LongStallCycles, st.RecoveryStallCycles)
	}
}

// TestProfilerOffUnchanged guards the opt-in contract: two identical
// runs, one profiled and one not, retire the same instruction count in
// the same number of cycles.
func TestProfilerOffUnchanged(t *testing.T) {
	k, err := workload.ByName("crc64", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	plain := New(DefaultConfig(), k.Prog, carfModel())
	stPlain, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	profiled := New(DefaultConfig(), k.Prog, carfModel())
	stProf, err := profiled.RunContext(context.Background(), Observe{Profile: new(profile.Profiler)})
	if err != nil {
		t.Fatal(err)
	}
	if stPlain.Cycles != stProf.Cycles || stPlain.Instructions != stProf.Instructions {
		t.Errorf("profiling changed timing: %d/%d cycles, %d/%d instructions",
			stPlain.Cycles, stProf.Cycles, stPlain.Instructions, stProf.Instructions)
	}
}

// TestProfilerWithWrongPath keeps the identity under wrong-path
// speculation, where phantom fetch and squashes stress the blame paths.
func TestProfilerWithWrongPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WrongPath = true
	st, prof := runProfiled(t, "qsort", carfModel(), cfg)
	if err := prof.Stack.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if prof.Stack.Cycles != st.Cycles {
		t.Errorf("stack counted %d cycles, pipeline %d", prof.Stack.Cycles, st.Cycles)
	}
	// Phantoms never commit, so per-PC commits still reconcile.
	if tot := prof.PCs.Totals(); tot.Committed != st.Instructions {
		t.Errorf("per-PC commits %d, pipeline %d", tot.Committed, st.Instructions)
	}
}
