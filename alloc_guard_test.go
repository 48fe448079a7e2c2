package carf

// Allocation regression guard for the hot cycle loop. The pool/ring
// organization leaves only construction-time allocation: one full histo
// run (~150k committed instructions) must stay under allocBudget
// allocations per instruction — about 30× headroom over the measured
// ~0.0013, but ~500× below the ~0.66 a single per-instruction
// allocation would cost. A new allocation on the fetch, issue, commit,
// or squash path blows the budget immediately.

import (
	"context"
	"runtime"
	"testing"

	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/metrics"
	"carf/internal/pipeline"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/workload"
)

const allocBudget = 0.04 // allocations per committed instruction

func perInstAllocs(t *testing.T, run func() uint64) float64 {
	t.Helper()
	var insts uint64
	allocs := testing.AllocsPerRun(3, func() {
		insts = run()
	})
	if insts == 0 {
		t.Fatal("run committed no instructions")
	}
	return allocs / float64(insts)
}

func TestCycleLoopAllocBudget(t *testing.T) {
	k, err := workload.ByName("histo", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkedCfg := pipeline.DefaultConfig()
	checkedCfg.Harden = harden.Options{Lockstep: true, SweepEvery: 4096, WatchdogAfter: 50000}

	cases := []struct {
		name string
		run  func() uint64
	}{
		{"baseline", func() uint64 {
			st, err := pipeline.New(pipeline.DefaultConfig(), k.Prog, regfile.Baseline()).Run()
			if err != nil {
				t.Fatal(err)
			}
			return st.Instructions
		}},
		{"checked", func() uint64 {
			cpu, err := pipeline.NewChecked(checkedCfg, k.Prog, regfile.Baseline())
			if err != nil {
				t.Fatal(err)
			}
			st, err := cpu.Run()
			if err != nil {
				t.Fatal(err)
			}
			return st.Instructions
		}},
		{"profiled", func() uint64 {
			cpu := pipeline.New(pipeline.DefaultConfig(), k.Prog, regfile.Baseline())
			st, err := cpu.RunContext(context.Background(), pipeline.Observe{Profile: new(profile.Profiler)})
			if err != nil {
				t.Fatal(err)
			}
			return st.Instructions
		}},
		// The content-aware model on the superblock replay path: the
		// decoded fast loop must be as allocation-free as the generic one.
		{"carf", func() uint64 {
			st, err := pipeline.New(pipeline.DefaultConfig(), k.Prog, core.New(core.DefaultParams())).Run()
			if err != nil {
				t.Fatal(err)
			}
			return st.Instructions
		}},
		// An observed run: cancellation checks and progress frames
		// between chunks cost nothing per instruction.
		{"observed", func() uint64 {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			frames := 0
			cpu := pipeline.New(pipeline.DefaultConfig(), k.Prog, regfile.Baseline())
			st, err := cpu.RunContext(ctx, pipeline.Observe{Frame: func(pipeline.Progress) { frames++ }})
			if err != nil {
				t.Fatal(err)
			}
			if frames < 2 {
				t.Fatalf("%d progress frames, want a frame per chunk plus Final", frames)
			}
			return st.Instructions
		}},
		// A run sampling its metric series: each sample allocates its
		// one []float64, nothing per cycle.
		{"series", func() uint64 {
			var ts metrics.TimeSeries
			cpu := pipeline.New(pipeline.DefaultConfig(), k.Prog, core.New(core.DefaultParams()))
			st, err := cpu.RunContext(context.Background(), pipeline.Observe{Every: metrics.DefaultInterval, Series: &ts})
			if err != nil {
				t.Fatal(err)
			}
			if len(ts.Samples) < 2 {
				t.Fatalf("%d series samples, want one per interval plus the closing one", len(ts.Samples))
			}
			return st.Instructions
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := perInstAllocs(t, c.run); got > allocBudget {
				t.Errorf("%s: %.4f allocations per committed instruction, budget %.4f — something on the cycle loop started allocating",
					c.name, got, allocBudget)
			}
		})
	}
}

// simBytesBudget caps the heap bytes one warm histo simulation may
// allocate, on either register file organization. Counting allocations
// cannot see a table: a 256 KiB L2 tag array is one allocation. With
// every per-run table recycled (pipeline.CPU.Finalize: caches,
// predictors, records, memory pages, the pipeline's scoreboards and
// queues, the register file model's arrays, the memory's page map) a
// second simulation allocates under 5 KiB (4,552 bytes on the baseline
// file, 4,968 on the content-aware one) — the CPU struct and vm.New's
// machine — so the budget leaves about 1 KiB of headroom; rebuilding the
// tables costs over 400 KiB, and cloning the page map again 256 bytes.
const simBytesBudget = 6 << 10

func TestSimulationHeapBytes(t *testing.T) {
	k, err := workload.ByName("histo", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range []struct {
		name  string
		model func() regfile.Model
	}{
		{"baseline", func() regfile.Model { return regfile.Baseline() }},
		{"content-aware", func() regfile.Model { return core.New(core.DefaultParams()) }},
	} {
		run := func() {
			if _, err := pipeline.New(pipeline.DefaultConfig(), k.Prog, org.model()).Run(); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: leaves its tables for the measured run
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: a warm histo simulation allocated %d bytes", org.name, got)
		if got > simBytesBudget {
			t.Errorf("%s: a warm histo simulation allocated %d KiB, budget %d KiB — a per-run table or memory page is no longer recycled",
				org.name, got>>10, simBytesBudget>>10)
		}
	}
}
