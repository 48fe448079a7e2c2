package pipeline

import (
	"context"
	"errors"
	"testing"

	"carf/internal/core"
	"carf/internal/vm"
	"carf/internal/workload"
)

// TestProgressFrames runs a kernel with a progress callback and checks
// the frame stream's invariants: frames on every multiple of the frame
// length, monotonic totals, interval deltas that sum back to the totals,
// and a single Final frame whose totals equal the returned Stats. With
// Every set, a cancel stops the run within one slice.
func TestProgressFrames(t *testing.T) {
	k, err := workload.ByName("qsort", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("default", func(t *testing.T) { checkFrames(t, k.Prog, 0, defaultEvery) })
	t.Run("every-1000", func(t *testing.T) {
		checkFrames(t, k.Prog, 1000, 1000)

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		frames := 0
		cpu := New(DefaultConfig(), k.Prog, core.New(core.DefaultParams()))
		st, err := cpu.RunContext(ctx, Observe{Every: 1000, Frame: func(Progress) {
			if frames++; frames == 3 {
				cancel()
			}
		}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want one wrapping context.Canceled", err)
		}
		if st.Cycles != 4000 || frames != 3 {
			t.Errorf("canceled at the third frame: stopped at cycle %d after %d frames, want cycle 4000 after 3", st.Cycles, frames)
		}
	})
}

func checkFrames(t *testing.T, prog *vm.Program, every, slice uint64) {
	t.Helper()
	model := core.New(core.DefaultParams())
	cpu := New(DefaultConfig(), prog, model)

	var frames []Progress
	st, err := cpu.RunContext(context.Background(), Observe{Every: every, Frame: func(p Progress) { frames = append(frames, p) }})
	if err != nil {
		t.Fatal(err)
	}

	if len(frames) < 2 {
		t.Fatalf("only %d progress frames for a %d-cycle run (slice %d)", len(frames), st.Cycles, slice)
	}
	var sumIC, sumII uint64
	for i, p := range frames {
		// Non-final frames fall on slice boundaries, one per slice.
		if want := uint64(i+1) * slice; !p.Final && p.Cycles != want {
			t.Fatalf("frame %d at cycle %d, want %d", i, p.Cycles, want)
		}
		if i > 0 {
			prev := frames[i-1]
			if p.Cycles < prev.Cycles || p.Instructions < prev.Instructions {
				t.Fatalf("frame %d not monotonic: %d/%d cycles, %d/%d insts",
					i, prev.Cycles, p.Cycles, prev.Instructions, p.Instructions)
			}
			if p.IntervalCycles != p.Cycles-prev.Cycles {
				t.Fatalf("frame %d interval cycles %d, want %d", i, p.IntervalCycles, p.Cycles-prev.Cycles)
			}
			if p.IntervalInstructions != p.Instructions-prev.Instructions {
				t.Fatalf("frame %d interval insts %d, want %d", i, p.IntervalInstructions, p.Instructions-prev.Instructions)
			}
		}
		sumIC += p.IntervalCycles
		sumII += p.IntervalInstructions
		if p.Final != (i == len(frames)-1) {
			t.Fatalf("frame %d Final=%v at position %d/%d", i, p.Final, i, len(frames)-1)
		}
		if p.ROB < 0 || p.IntIQ < 0 || p.FPIQ < 0 || p.LSQ < 0 {
			t.Fatalf("frame %d has negative occupancy: %+v", i, p)
		}
	}
	final := frames[len(frames)-1]
	if final.Cycles != st.Cycles || final.Instructions != st.Instructions {
		t.Errorf("final frame %d cycles / %d insts, Stats %d / %d",
			final.Cycles, final.Instructions, st.Cycles, st.Instructions)
	}
	if sumIC != st.Cycles || sumII != st.Instructions {
		t.Errorf("interval deltas sum to %d cycles / %d insts, Stats %d / %d",
			sumIC, sumII, st.Cycles, st.Instructions)
	}
	// The write counts are cumulative; the final frame must match the
	// model's own activity report and write mix.
	for i, f := range model.Files() {
		if i >= len(final.ArrayWrites) {
			break
		}
		if final.ArrayWrites[i] != f.Writes {
			t.Errorf("final frame array writes[%d] = %d, model reports %d", i, final.ArrayWrites[i], f.Writes)
		}
	}
	if want := model.Stats().WritesByType; final.WritesByType != want {
		t.Errorf("final frame writes by type %v, model reports %v", final.WritesByType, want)
	}
}

// TestProgressObservationIsFree verifies the key invariant of the
// progress plane: a run's statistics are bit-identical with a progress
// callback or without one, so memoized results are safe to share across
// observed and unobserved callers.
func TestProgressObservationIsFree(t *testing.T) {
	k, err := workload.ByName("crc64", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(hook bool) Stats {
		cpu := New(DefaultConfig(), k.Prog, core.New(core.DefaultParams()))
		var obs Observe
		if hook {
			obs.Frame = func(Progress) {}
		}
		st, err := cpu.RunContext(context.Background(), obs)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain, observed := run(false), run(true)
	if plain != observed {
		t.Errorf("stats differ with a progress callback:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}
