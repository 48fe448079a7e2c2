package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"carf/internal/core"
	"carf/internal/regfile"
	"carf/internal/vm"
	"carf/internal/workload"
)

// TestRunChunkMatchesRun pins the resumable-execution contract: slicing
// a simulation into RunChunk calls of any size (0 = one unbounded call),
// then Finalize, must reproduce every statistic of Run bit-for-bit.
// RunContext, and so every run, depends on this.
func TestRunChunkMatchesRun(t *testing.T) {
	models := map[string]func() regfile.Model{
		"baseline": func() regfile.Model { return regfile.Baseline() },
		"carf":     func() regfile.Model { return core.New(core.DefaultParams()) },
	}
	for _, kernel := range []string{"histo", "qsort"} {
		k, err := workload.ByName(kernel, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for mname, mk := range models {
			ref := New(DefaultConfig(), k.Prog, mk())
			want, err := ref.Run()
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", kernel, mname, err)
			}
			for _, chunk := range []int64{0, 1, 7, 4096} {
				cpu := New(DefaultConfig(), k.Prog, mk())
				steps := 0
				for {
					done, err := cpu.RunChunk(chunk)
					if err != nil {
						t.Fatalf("%s/%s chunk %d: RunChunk: %v", kernel, mname, chunk, err)
					}
					if done {
						break
					}
					if steps++; steps > 10_000_000 {
						t.Fatalf("%s/%s chunk %d: no termination", kernel, mname, chunk)
					}
				}
				got, err := cpu.Finalize()
				if err != nil {
					t.Fatalf("%s/%s chunk %d: Finalize: %v", kernel, mname, chunk, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s chunk %d: stats diverge\n got: %+v\nwant: %+v",
						kernel, mname, chunk, got, want)
				}
				if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
					t.Errorf("%s/%s chunk %d: result %#x, want %#x", kernel, mname, chunk, got, k.Expected)
				}
			}
		}
	}
}

// TestRunContextCancel pins the driver's cancellation contract: a
// canceled context stops the run at the next chunk boundary, a
// multiple of defaultEvery, with an error wrapping the context's.
func TestRunContextCancel(t *testing.T) {
	k, err := workload.ByName("qsort", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, st Stats, err error, wantCycles uint64) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want one wrapping context.Canceled", err)
		}
		if st.Cycles != wantCycles {
			t.Errorf("stopped at cycle %d, want %d", st.Cycles, wantCycles)
		}
		want := fmt.Sprintf("pipeline: run interrupted at cycle %d: %v", wantCycles, context.Canceled)
		if err.Error() != want {
			t.Errorf("error %q, want %q", err, want)
		}
	}

	t.Run("mid-run", func(t *testing.T) {
		// Cancel from the third progress frame: the run stops one chunk
		// later, at the next boundary.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		frames := 0
		cpu := New(DefaultConfig(), k.Prog, core.New(core.DefaultParams()))
		st, err := cpu.RunContext(ctx, Observe{Frame: func(Progress) {
			if frames++; frames == 3 {
				cancel()
			}
		}})
		check(t, st, err, 4*defaultEvery)
		if frames != 3 {
			t.Errorf("%d progress frames, want 3 (none after the cancel, no Final)", frames)
		}
	})

	t.Run("already-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cpu := New(DefaultConfig(), k.Prog, regfile.Baseline())
		st, err := cpu.RunContext(ctx, Observe{})
		check(t, st, err, defaultEvery)
	})
}

// TestSMTRunContextSlices is TestRunChunkMatchesRun for the two-thread
// machine: both threads' statistics and the machine's cycle count are
// bit-identical for every slice length, and the closing frame carries
// the summed totals.
func TestSMTRunContextSlices(t *testing.T) {
	ka, err := workload.ByName("crc64", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := workload.ByName("hashprobe", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	run := func(every uint64) ([2]Stats, uint64, Progress) {
		p := core.DefaultParams()
		p.NumLong = 24
		smt := NewSMT(DefaultConfig(), [2]*vm.Program{ka.Prog, kb.Prog}, core.New(p))
		smt.SetPolicy(PolicyLongAware)
		var final Progress
		sts, err := smt.RunContext(context.Background(), Observe{Every: every, Frame: func(p Progress) { final = p }})
		if err != nil {
			t.Fatalf("every %d: %v", every, err)
		}
		for i, k := range []workload.Kernel{ka, kb} {
			if got := smt.Thread(i).Machine().X[workload.ResultReg]; got != k.Expected {
				t.Errorf("every %d thread %d: result %#x, want %#x", every, i, got, k.Expected)
			}
		}
		return sts, smt.Cycles(), final
	}
	want, wantCycles, final := run(0)
	if !final.Final || final.Cycles != wantCycles || final.Instructions != want[0].Instructions+want[1].Instructions {
		t.Errorf("closing frame %+v, want Final at cycle %d with %d instructions",
			final, wantCycles, want[0].Instructions+want[1].Instructions)
	}
	for _, every := range []uint64{1, 7, 4096, 1 << 40} {
		got, cycles, _ := run(every)
		if cycles != wantCycles || !reflect.DeepEqual(got, want) {
			t.Errorf("every %d: %d cycles, stats diverge\n got: %+v\nwant: %+v", every, cycles, got, want)
		}
	}
}

// TestSMTRunContextCancel: a canceled context stops the two-thread
// machine at the first slice boundary with an error wrapping the
// context's.
func TestSMTRunContextCancel(t *testing.T) {
	ka, err := workload.ByName("qsort", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := workload.ByName("crc64", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	smt := NewSMT(DefaultConfig(), [2]*vm.Program{ka.Prog, kb.Prog}, core.New(core.DefaultParams()))
	_, err = smt.RunContext(ctx, Observe{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if smt.Cycles() != defaultEvery {
		t.Errorf("stopped at cycle %d, want %d", smt.Cycles(), defaultEvery)
	}
}
