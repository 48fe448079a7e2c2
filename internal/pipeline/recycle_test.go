package pipeline

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"carf/internal/cache"
	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/regfile"
	"carf/internal/vm"
	"carf/internal/workload"
)

// sameTable reports whether a and b are backed by one table.
func sameTable[E any](a, b []E) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// assertUnshared fails when two live CPUs hold the same recycled table:
// state written through a must be invisible to b.
func assertUnshared(t *testing.T, a, b *CPU) {
	t.Helper()
	for name, shared := range map[string]bool{
		"instruction-record slab": sameTable(a.slab, b.slab),
		"record stack":            sameTable(a.pool, b.pool),
		"ROB":                     sameTable(a.rob.buf, b.rob.buf),
		"fetch queue":             sameTable(a.front.buf, b.front.buf),
		"LSQ":                     sameTable(a.lsq.buf, b.lsq.buf),
		"write-back list":         sameTable(a.wbList, b.wbList),
		"integer issue queue":     sameTable(a.intIQ, b.intIQ),
		"FP issue queue":          sameTable(a.fpIQ, b.fpIQ),
		"integer waiter heads":    sameTable(a.intWaitHead, b.intWaitHead),
		"FP waiter heads":         sameTable(a.fpWaitHead, b.fpWaitHead),
		"integer done cycles":     sameTable(a.intDone, b.intDone),
		"integer write-backs":     sameTable(a.intWB, b.intWB),
		"FP done cycles":          sameTable(a.fpDone, b.fpDone),
		"FP write-backs":          sameTable(a.fpWB, b.fpWB),
		"integer live flags":      sameTable(a.intLive, b.intLive),
		"integer written flags":   sameTable(a.intWrote, b.intWrote),
		"FP live flags":           sameTable(a.fpLive, b.fpLive),
		"oracle values":           sameTable(a.intValue, b.intValue),
		"FP free list":            sameTable(a.fpFree, b.fpFree),
		"retirement-map scratch":  sameTable(a.archScratch, b.archScratch),
		"tag clusters":            sameTable(a.tagCluster, b.tagCluster),
	} {
		if shared {
			t.Errorf("two live CPUs share their %s", name)
		}
	}
	a.ras.Push(0x1000)
	b.ras.Push(0x2000)
	if got, _ := a.ras.Pop(); got != 0x1000 {
		t.Error("a return address pushed in one CPU's stack shows in another's")
	}
	// The register file models: a tag allocated and written in a's file
	// is not live in b's.
	tag, ok := a.model.Alloc()
	if !ok {
		t.Fatal("a fresh register file has no free tag")
	}
	a.model.ForceWrite(tag, 0x1234_5678_9abc_def0)
	if _, live := b.model.ReadValue(tag); live {
		t.Errorf("a register written in one CPU's %s file is live in another's", a.model.Name())
	}
	const addr = 0x7654_3210
	for i, lv := range []*cache.Cache{a.hier.L1I, a.hier.L1D, a.hier.L2} {
		lv.Access(addr)
		if []*cache.Cache{b.hier.L1I, b.hier.L1D, b.hier.L2}[i].Probe(addr) {
			t.Errorf("a line filled in one CPU's %s is resident in another's", lv.Config().Name)
		}
	}
	const pc = 0
	a.btb.Insert(pc, 0x9000)
	if _, ok := b.btb.Lookup(pc); ok {
		t.Error("a target inserted in one CPU's BTB hits in another's")
	}
	// Twenty taken updates fill a's global history with ones and then
	// saturate the counter at pc ^ all-ones. Fourteen taken updates at a
	// pc whose path avoids that counter bring b's history to all ones
	// too, so b reads the same counter — fresh (not taken) unless shared.
	for i := 0; i < 20; i++ {
		a.gshare.Update(pc, true)
	}
	for i := 0; i < 14; i++ {
		b.gshare.Update(8, true)
	}
	if !a.gshare.Predict(pc) {
		t.Fatal("training did not saturate the counter")
	}
	if b.gshare.Predict(pc) {
		t.Error("a counter trained in one CPU's gshare is taken in another's")
	}
}

// modelView is what Finalize's lifetime rule keeps readable of a
// content-aware file whose tables went back.
type modelView struct {
	Stats        core.Stats
	Files        []regfile.FileActivity
	WritesByType [3]uint64
	Faults       []string
}

func viewOf(f *core.File) modelView {
	return modelView{f.Stats(), f.Files(), f.WritesByType(), f.Faults()}
}

// TestFinalizeLifetime pins Finalize's lifetime rule: a second call is a
// no-op, the CPU cannot run again, everything a caller reads stays
// readable — the model's Stats, Files, WritesByType and Faults too —
// except the machine's memory, which is empty, and the released tables,
// the CPU's and the model's, go back exactly once.
func TestFinalizeLifetime(t *testing.T) {
	k, err := workload.ByName("histo", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	model := core.New(core.DefaultParams())
	cpu := New(DefaultConfig(), k.Prog, model)
	if done, err := cpu.RunChunk(0); !done || err != nil {
		t.Fatalf("RunChunk(0) = %v, %v", done, err)
	}
	view := viewOf(model)
	st, err := cpu.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if cpu.slab != nil || cpu.intDone != nil || cpu.intIQ != nil || cpu.rob.buf != nil || cpu.fpFree != nil {
		t.Error("a clean run kept its record slab, scoreboards or queues after Finalize")
	}
	if got := viewOf(model); !reflect.DeepEqual(got, view) {
		t.Errorf("model after Finalize = %+v, want %+v", got, view)
	}
	model.Release() // already released: puts nothing back twice
	if got := viewOf(model); !reflect.DeepEqual(got, view) {
		t.Errorf("model after a second Release = %+v, want %+v", got, view)
	}
	h := cpu.Hierarchy()
	l1d, l2, acc := h.L1D.Stats(), h.L2.Stats(), cpu.Gshare().Accuracy()
	if l1d.Accesses == 0 || l2.Accesses == 0 || acc == 0 || view.Files[0].Writes == 0 {
		t.Fatalf("run left nothing to read: L1D %+v L2 %+v accuracy %v files %+v", l1d, l2, acc, view.Files)
	}
	if pages := cpu.Machine().Mem.MappedPages(); pages != 0 {
		t.Errorf("memory maps %d pages after Finalize, want 0: its pages go back for reuse", pages)
	}
	x, f, pc := cpu.Machine().X, cpu.Machine().F, cpu.Machine().PC

	again, err := cpu.Finalize()
	if err != nil || !reflect.DeepEqual(again, st) {
		t.Errorf("second Finalize = %+v, %v; want the first call's %+v, nil", again, err, st)
	}
	if _, err := cpu.RunChunk(0); err == nil {
		t.Error("RunChunk after Finalize returned no error")
	}
	if _, err := cpu.RunContext(context.Background(), Observe{}); err == nil {
		t.Error("RunContext after Finalize returned no error")
	}

	if got := cpu.Stats(); !reflect.DeepEqual(got, st) {
		t.Errorf("Stats after Finalize = %+v, want %+v", got, st)
	}
	if h.L1D.Stats() != l1d || h.L2.Stats() != l2 {
		t.Errorf("cache counters moved after Finalize: L1D %+v → %+v, L2 %+v → %+v", l1d, h.L1D.Stats(), l2, h.L2.Stats())
	}
	if cpu.Gshare().Accuracy() != acc {
		t.Error("predictor accuracy moved after Finalize")
	}
	if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
		t.Errorf("result register after Finalize = %#x, want %#x", got, k.Expected)
	}
	if m := cpu.Machine(); m.X != x || m.F != f || m.PC != pc || m.Mem.MappedPages() != 0 {
		t.Error("machine state moved after Finalize")
	}

	assertUnshared(t, New(DefaultConfig(), k.Prog, carfModel()), New(DefaultConfig(), k.Prog, carfModel()))
}

// TestAbandonedRunKeepsTables: a run finalized while it could still
// resume, or one whose model reported faults, hands nothing back. (A
// run that RunChunk failed for good does; see TestFailedRunReleases.)
func TestAbandonedRunKeepsTables(t *testing.T) {
	k, err := workload.ByName("histo", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, carfModel())
	if done, err := cpu.RunChunk(100); done || err != nil {
		t.Fatalf("RunChunk(100) = %v, %v", done, err)
	}
	if _, err := cpu.Finalize(); err != nil {
		t.Fatal(err)
	}
	if cpu.slab == nil || cpu.Machine().Mem.MappedPages() == 0 {
		t.Error("an abandoned run released its tables or memory pages")
	}

	faulty := New(DefaultConfig(), k.Prog, faultyModel{carfModel()})
	if _, err := faulty.Run(); err == nil || !strings.Contains(err.Error(), "register file fault") {
		t.Fatalf("faulty model: err = %v, want a register file fault", err)
	}
	if faulty.slab == nil {
		t.Error("a run that reported model faults released its tables")
	}
}

// TestFailedRunReleases: a fault-injection run that ends in a hardening
// error can never continue, so RunContext finalizes it and its tables go
// back like a clean run's, while its statistics, injections and the
// error's diagnostic bundle stay readable.
func TestFailedRunReleases(t *testing.T) {
	k, err := workload.ByName("hashprobe", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewChecked(hardenedConfig(), k.Prog, carfModel())
	if err != nil {
		t.Fatal(err)
	}
	cpu.ScheduleFault(harden.Fault{Class: harden.FaultShortBit, Cycle: 2000, Seed: 1})
	st, runErr := cpu.Run()
	var div *harden.DivergenceError
	var inv *harden.InvariantError
	var bundle *harden.Bundle
	switch {
	case errors.As(runErr, &div):
		bundle = div.Bundle
	case errors.As(runErr, &inv):
		bundle = inv.Bundle
	default:
		t.Fatalf("run ended with %v, want a hardening detection", runErr)
	}
	if cpu.slab != nil {
		t.Error("a run that failed for good kept its record slab")
	}
	if st.Instructions == 0 || !reflect.DeepEqual(cpu.Stats(), st) {
		t.Errorf("Stats after the failed run = %+v, want %+v", cpu.Stats(), st)
	}
	if outs := cpu.Injections(); len(outs) != 1 || !outs[0].Injected {
		t.Errorf("Injections after the failed run = %+v, want one injected fault", outs)
	}
	if bundle == nil || bundle.Cycle == 0 || len(bundle.Notes) == 0 || bundle.Format() == "" {
		t.Errorf("the error's bundle is not readable: %+v", bundle)
	}
	if _, err := cpu.RunChunk(0); err == nil {
		t.Error("RunChunk after the failed run returned no error")
	}
	assertUnshared(t, New(DefaultConfig(), k.Prog, carfModel()), New(DefaultConfig(), k.Prog, carfModel()))
}

// faultyModel reports one internal fault, as a model that double-freed a
// register would.
type faultyModel struct{ regfile.Model }

func (faultyModel) Faults() []string { return []string{"injected fault"} }

// TestSMTFinalizes: SMT.RunContext surfaces model faults with Finalize's error,
// and a clean run releases the shared hierarchy exactly once and cannot
// run again.
func TestSMTFinalizes(t *testing.T) {
	ka, err := workload.ByName("histo", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := workload.ByName("crc64", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	progs := [2]*vm.Program{ka.Prog, kb.Prog}

	_, err = NewSMT(DefaultConfig(), progs, faultyModel{carfModel()}).RunContext(context.Background(), Observe{})
	if err == nil || !strings.Contains(err.Error(), "pipeline: 1 register file fault(s), first: injected fault") {
		t.Fatalf("SMT run on a faulty model: err = %v, want Finalize's fault error", err)
	}

	smt := NewSMT(DefaultConfig(), progs, carfModel())
	sts, err := smt.RunContext(context.Background(), Observe{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smt.RunContext(context.Background(), Observe{}); err == nil {
		t.Error("a finished SMT ran again")
	}
	for i := range sts {
		if got, err := smt.Thread(i).Finalize(); err != nil || !reflect.DeepEqual(got, sts[i]) {
			t.Errorf("thread %d: Finalize after SMT.RunContext = %+v, %v; want %+v", i, got, err, sts[i])
		}
	}
	assertUnshared(t, New(DefaultConfig(), ka.Prog, carfModel()), New(DefaultConfig(), ka.Prog, carfModel()))
}

// TestRecycledTablesIsolateRuns: a simulation on tables and memory pages
// another run released reports exactly what it reports on fresh ones.
// Kernel B runs four times — first, right after itself (a leftover of
// its own would warm every cache and predictor), after kernel A on the
// other register file, stopped by an instruction budget so its records
// are released while still in flight, and after the hungriest kernel,
// whose hash table leaves about 128 dirty pages for B's writes — and
// must report its golden record and checksum every time. B is branchy,
// so a stale predictor shows in its counts. The hungry kernel then runs
// again on its own released pages, so a table that still held its keys
// would change its checksum and statistics. Last, B runs on the
// content-aware file after runs that released register-file tables of
// its lengths, and must report that file's golden record.
func TestRecycledTablesIsolateRuns(t *testing.T) {
	ka, err := workload.ByName("histo", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := workload.ByName("qsort", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		Stats   Stats
		L1D, L2 cache.Stats
		Files   []regfile.FileActivity
		Carf    core.Stats // content-aware runs only
	}
	run := func(cfg Config, k workload.Kernel, model regfile.Model) result {
		cpu := New(cfg, k.Prog, model)
		st, err := cpu.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := cpu.Machine().X[workload.ResultReg]; cfg.MaxInstructions == 0 && got != k.Expected {
			t.Fatalf("%s: result %#x, want %#x", k.Name, got, k.Expected)
		}
		if cpu.slab != nil {
			t.Fatalf("%s: tables not released", k.Name)
		}
		r := result{Stats: st, L1D: cpu.Hierarchy().L1D.Stats(), L2: cpu.Hierarchy().L2.Stats(), Files: model.Files()}
		if f, ok := model.(*core.File); ok {
			r.Carf = f.Stats()
		}
		return r
	}
	first := run(DefaultConfig(), kb, regfile.Baseline())
	afterSelf := run(DefaultConfig(), kb, regfile.Baseline())
	budget := DefaultConfig()
	budget.MaxInstructions = 8000
	if a := run(budget, ka, carfModel()); a.Stats.Instructions < budget.MaxInstructions {
		t.Fatalf("%s stopped at %d instructions, before its budget", ka.Name, a.Stats.Instructions)
	}
	afterA := run(DefaultConfig(), kb, regfile.Baseline())
	hungry, err := workload.ByName("hashprobe", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hungryFirst := run(DefaultConfig(), hungry, regfile.Baseline())
	afterHungry := run(DefaultConfig(), kb, regfile.Baseline())
	if hungryAgain := run(DefaultConfig(), hungry, regfile.Baseline()); !reflect.DeepEqual(hungryAgain, hungryFirst) {
		t.Errorf("%s on its own released pages differs from its first run:\n got: %+v\nwant: %+v", hungry.Name, hungryAgain, hungryFirst)
	}
	for name, got := range map[string]result{"after itself": afterSelf, "after " + ka.Name: afterA, "after " + hungry.Name: afterHungry} {
		if !reflect.DeepEqual(got, first) {
			t.Errorf("%s %s differs from its first run:\n got: %+v\nwant: %+v", kb.Name, name, got, first)
		}
	}
	if want := goldenStats(t)[kb.Name+"/baseline"]; !reflect.DeepEqual(first.Stats, want) {
		t.Errorf("%s differs from its golden record:\n got: %+v\nwant: %+v", kb.Name, first.Stats, want)
	}

	// The register files' tables: a sweeps-shaped content-aware file
	// (16 Long entries, CAM Short file) and the baseline file leave
	// tables of the 112-entry lengths they share with the default file,
	// the Simple entries and free lists among them.
	carfFirst := run(DefaultConfig(), kb, carfModel())
	sweep := core.DefaultParams()
	sweep.NumLong, sweep.CAMShort = 16, true
	run(DefaultConfig(), ka, core.New(sweep))
	run(DefaultConfig(), ka, regfile.Baseline())
	carfAfter := run(DefaultConfig(), kb, carfModel())
	if !reflect.DeepEqual(carfAfter, carfFirst) {
		t.Errorf("%s on the content-aware file after recycled runs differs from its first run:\n got: %+v\nwant: %+v", kb.Name, carfAfter, carfFirst)
	}
	if want := goldenStats(t)[kb.Name+"/carf"]; !reflect.DeepEqual(carfAfter.Stats, want) {
		t.Errorf("%s on the content-aware file differs from its golden record:\n got: %+v\nwant: %+v", kb.Name, carfAfter.Stats, want)
	}
}
