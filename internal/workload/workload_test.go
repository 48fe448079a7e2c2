package workload

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"carf/internal/isa"
	"carf/internal/vm"
)

// TestKernelsComputeExpected is the correctness backbone of the whole
// repository: every kernel, run on the architectural golden model, must
// deposit its precomputed checksum in x28. A failure here means the
// builder, the VM semantics, or a kernel's Go replica disagree.
func TestKernelsComputeExpected(t *testing.T) {
	for _, r := range AllKernels(0.25) {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			k, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			m := vm.New(k.Prog)
			n, err := m.Run(100_000_000)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			if !m.Halted {
				t.Fatalf("%s: did not halt after %d instructions", k.Name, n)
			}
			if err := k.CheckResult(m); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCheckResultRejectsWrongChecksum: the one checksum check every run
// kind calls fails a run whose kernel expects a different answer, and
// names the kernel and both values.
func TestCheckResultRejectsWrongChecksum(t *testing.T) {
	k, err := ByName("crc64", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(k.Prog)
	if _, err := m.Run(10_000_000); err != nil || !m.Halted {
		t.Fatalf("run: halted=%v err=%v", m.Halted, err)
	}
	if err := k.CheckResult(m); err != nil {
		t.Fatalf("correct checksum rejected: %v", err)
	}
	wrong := k
	wrong.Expected ^= 1
	err = wrong.CheckResult(m)
	if err == nil {
		t.Fatal("wrong expected checksum accepted")
	}
	want := fmt.Sprintf("crc64 computed %#x, expected %#x", k.Expected, wrong.Expected)
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

// TestKernelSizes reports and sanity-bounds dynamic instruction counts at
// scale 1.0: each kernel must be substantial (>50k) but tractable (<5M).
func TestKernelSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale kernels are slow in -short mode")
	}
	for _, r := range AllKernels(1.0) {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			k, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			m := vm.New(k.Prog)
			n, err := m.Run(20_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Halted {
				t.Fatalf("did not halt after %d instructions", n)
			}
			if got := m.X[ResultReg]; got != k.Expected {
				t.Errorf("x28 = %#x, want %#x", got, k.Expected)
			}
			if n < 50_000 || n > 5_000_000 {
				t.Errorf("dynamic instruction count %d outside [50k, 5M]", n)
			}
			t.Logf("%s: %d dynamic instructions, %d static", k.Name, n, len(k.Prog.Code))
		})
	}
}

func TestSuites(t *testing.T) {
	ints := IntSuite(0.05)
	fps := FPSuite(0.05)
	if len(ints) != 14 {
		t.Errorf("int suite has %d kernels, want 14", len(ints))
	}
	if len(fps) != 8 {
		t.Errorf("fp suite has %d kernels, want 8", len(fps))
	}
	for _, r := range append(ints, fps...) {
		k, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		if k.Name != r.Name || k.FP != r.FP {
			t.Errorf("ref %s (FP %v) built kernel %s (FP %v)", r.Name, r.FP, k.Name, k.FP)
		}
	}
	for _, r := range ints {
		if r.FP {
			t.Errorf("%s marked FP in int suite", r.Name)
		}
	}
	for _, r := range fps {
		if !r.FP {
			t.Errorf("%s not marked FP in fp suite", r.Name)
		}
	}
	if got := len(Names()); got != 22 {
		t.Errorf("Names() returned %d, want 22", got)
	}
}

// TestRefBuildsOnce: a Ref builds its program on first use only,
// concurrent callers all receive that one program, and every way of
// naming the kernel at that scale resolves to the same canonical Ref.
// The scale is one no other test in this package uses, fresh on every
// run (go test -count), so the process has not built it yet.
func TestRefBuildsOnce(t *testing.T) {
	refBuildsRuns++
	scale := 0.07 + 1e-4*float64(refBuildsRuns)
	r, err := Lookup("crc64", scale)
	if err != nil {
		t.Fatal(err)
	}
	before := Builds()
	progs := make([]*vm.Program, 8)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := r.Build()
			if err != nil {
				t.Error(err)
			}
			progs[i] = k.Prog
		}(i)
	}
	wg.Wait()
	for _, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatal("concurrent Build calls returned different programs")
		}
	}

	again, err := Lookup("crc64", scale)
	if err != nil {
		t.Fatal(err)
	}
	if again != r {
		t.Error("a second Lookup returned a different Ref")
	}
	var inSuite *Ref
	for _, s := range IntSuite(scale) {
		if s.Name == "crc64" {
			inSuite = s
		}
	}
	if inSuite != r {
		t.Error("IntSuite returned a different Ref than Lookup")
	}
	k, err := ByName("crc64", scale)
	if err != nil {
		t.Fatal(err)
	}
	if k.Prog != progs[0] {
		t.Error("ByName returned a different program than the Ref's")
	}
	if n := Builds() - before; n != 1 {
		t.Errorf("%d builds for one kernel at one scale, want 1", n)
	}
}

// refBuildsRuns counts TestRefBuildsOnce's runs in this process.
var refBuildsRuns int

// TestRefMemoBounded: a process fed many distinct scales keeps at most
// refKeep suites' worth of canonical Refs, and an evicted Ref that no
// caller holds is freed with its program, so the live heap does not
// grow with the number of scales seen.
func TestRefMemoBounded(t *testing.T) {
	limit := refKeep * len(factories)
	build := func(i int) (weak.Pointer[Ref], Kernel) {
		r, err := Lookup("crc64", 0.003+1e-6*float64(i))
		if err != nil {
			t.Fatal(err)
		}
		k, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(r), k
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	first, k := build(0)
	imageBytes := int64(vm.New(k.Prog).Mem.MappedPages()) * 4096
	if imageBytes == 0 {
		t.Fatal("crc64 maps no data pages; the heap bound below would not bite")
	}
	for i := 1; i < limit; i++ {
		build(i)
	}
	base := liveHeap()
	const rounds = 3
	for i := limit; i < (1+rounds)*limit; i++ {
		build(i)
	}
	grown := liveHeap() - base

	refMu.Lock()
	n := len(refMemo)
	refMu.Unlock()
	if n > limit {
		t.Errorf("memo holds %d Refs after %d distinct scales, want at most %d", n, (1+rounds)*limit, limit)
	}
	if first.Value() != nil {
		t.Error("the least recently used Ref is still live after the memo evicted it")
	}
	// Retaining every build would keep rounds*limit more images live.
	if kept := int64(rounds*limit) * imageBytes; grown > kept/4 {
		t.Errorf("live heap grew %d bytes over %d new scales; retaining them would cost %d", grown, rounds*limit, kept)
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("crc64", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "crc64" {
		t.Errorf("got kernel %q", k.Name)
	}
	if _, err := ByName("nosuch", 1); err == nil {
		t.Error("expected error for unknown kernel")
	}
}

// TestDeterministicBuilds builds one kernel twice through its factory
// (ByName would return the one memoized build both times).
func TestDeterministicBuilds(t *testing.T) {
	var f *kernelFactory
	for i := range factories {
		if factories[i].name == "hashprobe" {
			f = &factories[i]
		}
	}
	a, errA := f.build(0.1)
	b, errB := f.build(0.1)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.Prog == b.Prog {
		t.Fatal("the factory returned one program twice")
	}
	if a.Expected != b.Expected {
		t.Error("same kernel built twice differs")
	}
	if len(a.Prog.Code) != len(b.Prog.Code) {
		t.Error("code length differs between builds")
	}
}

func TestBuilderLabelErrors(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("undefined label should fail Build")
	}

	b2 := NewBuilder("dup")
	b2.Label("x")
	b2.Label("x")
	b2.Halt()
	if _, err := b2.Build(); err == nil {
		t.Error("duplicate label should fail Build")
	}
}

func TestBuilderRejectsX0Dest(t *testing.T) {
	b := NewBuilder("x0")
	b.Add(isa.Zero, 1, 2)
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Error("ALU write to x0 should fail Build")
	}
}

func TestBuilderBranchResolution(t *testing.T) {
	b := NewBuilder("br")
	b.Li(1, 3)
	b.Label("loop")
	b.Addi(1, 1, -1)
	b.Bnez(1, "loop")
	b.Mv(ResultReg, 1)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.X[ResultReg] != 0 {
		t.Errorf("countdown ended at %d", m.X[ResultReg])
	}
}

func TestBuilderJumpTable(t *testing.T) {
	b := NewBuilder("jt")
	tbl := uint64(GlobalBase)
	b.WordsLabels(tbl, []string{"ha", "hb"})
	b.La(1, tbl)
	b.Ld(2, 1, 8) // address of hb
	b.Jr(2)
	b.Label("ha")
	b.Li(ResultReg, 1)
	b.Halt()
	b.Label("hb")
	b.Li(ResultReg, 2)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.X[ResultReg] != 2 {
		t.Errorf("jump table landed at %d, want handler 2", m.X[ResultReg])
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(0).Next() == 0 {
		t.Error("zero seed should be remapped")
	}
	f := NewRNG(9).Float64()
	if f < 0 || f >= 1 {
		t.Errorf("Float64 out of range: %v", f)
	}
}

func TestMul128MatchesVM(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 1000; i++ {
		a, b := r.Next(), r.Next()
		hi, lo := mul128(a, b)
		if lo != a*b {
			t.Fatalf("lo mismatch for %#x * %#x", a, b)
		}
		// Cross-check hi against the VM's MULHU path.
		k := HashProbe // silence unused warnings in some configs
		_ = k
		hi2 := mulhuRef(a, b)
		if hi != hi2 {
			t.Fatalf("hi mismatch for %#x * %#x: %#x vs %#x", a, b, hi, hi2)
		}
	}
}

// mulhuRef computes the high 64 bits of the product by splitting into
// 32-bit halves (independent re-derivation for the test).
func mulhuRef(a, b uint64) uint64 {
	const mask = 1<<32 - 1
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := ah*bl + (al*bl)>>32
	return ah*bh + t>>32 + (al*bh+t&mask)>>32
}
