package carf

import (
	"context"
	"strings"
	"testing"
)

func TestKernelsListed(t *testing.T) {
	ks := Kernels()
	if len(ks) != 22 {
		t.Errorf("kernels = %d, want 22", len(ks))
	}
}

func TestRunDefaults(t *testing.T) {
	res, err := Run("histo", Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Organization != ContentAware {
		t.Errorf("default organization = %q", res.Organization)
	}
	if res.IPC <= 0 || res.Instructions == 0 || res.Cycles == 0 {
		t.Errorf("empty result: %+v", res)
	}
	if res.ReadsByType == [3]uint64{} {
		t.Error("content-aware run reported no typed reads")
	}
}

func TestRunAllOrganizations(t *testing.T) {
	var energies = map[Organization]float64{}
	for _, org := range Organizations() {
		res, err := Run("strsearch", Config{Organization: org, Scale: 0.05})
		if err != nil {
			t.Fatalf("%s: %v", org, err)
		}
		if res.Organization != org {
			t.Errorf("organization echoed as %q", res.Organization)
		}
		energies[org] = res.RegFileEnergy
	}
	if !(energies[ContentAware] < energies[Baseline] && energies[Baseline] < energies[Unlimited]) {
		t.Errorf("energy ordering violated: %v", energies)
	}
}

func TestRunValidatesInput(t *testing.T) {
	if _, err := Run("nosuch", Config{}); err == nil {
		t.Error("unknown kernel should error")
	}
	if _, err := Run("qsort", Config{Organization: "bogus"}); err == nil {
		t.Error("unknown organization should error")
	}
	if _, err := Run("qsort", Config{DPlusN: 2, Scale: 0.05}); err == nil {
		t.Error("invalid content-aware parameters should error")
	}
}

func TestMaxInstructionsBound(t *testing.T) {
	res, err := Run("crc64", Config{Organization: Baseline, MaxInstructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions < 2000 || res.Instructions > 2100 {
		t.Errorf("instructions = %d, want ~2000", res.Instructions)
	}
}

func TestSeriesAndTraceExport(t *testing.T) {
	res, err := Run("crc64", Config{Scale: 0.1, MetricsInterval: 500, TraceEvents: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil {
		t.Fatal("MetricsInterval set but Result.Series is nil")
	}
	if len(res.Series.Samples) == 0 || res.Series.Index("pipeline.ipc") < 0 {
		t.Errorf("series incomplete: %d samples, names %v",
			len(res.Series.Samples), res.Series.Names)
	}
	if last, ok := res.Series.Last(); !ok || last.Cycle != res.Cycles {
		t.Errorf("final sample at cycle %d, run ended at %d", last.Cycle, res.Cycles)
	}
	if res.Trace == nil {
		t.Fatal("TraceEvents set but Result.Trace is nil")
	}
	if len(res.Trace.Events) != 100 {
		t.Errorf("trace holds %d events, want 100", len(res.Trace.Events))
	}
	if want := res.Instructions - 100; res.Trace.Dropped != want {
		t.Errorf("trace dropped %d, want %d", res.Trace.Dropped, want)
	}

	plain, err := Run("crc64", Config{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Series != nil || plain.Trace != nil {
		t.Error("observability disabled but Series/Trace are populated")
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(Experiments()) != 20 {
		t.Errorf("experiments = %d", len(Experiments()))
	}
	if DescribeExperiment("fig5") == "" {
		t.Error("fig5 has no description")
	}
	out, err := RunExperiment("fig8", ExperimentOptions{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 8") {
		t.Errorf("unexpected experiment output: %q", out)
	}
	if _, err := RunExperiment("nosuch", ExperimentOptions{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestRunCtxProgressFrames: library progress frames are the scheduler's
// stamped value, carrying the kernel label, completion, the simulator's
// write mix, and a Final frame whose totals equal the Result.
func TestRunCtxProgressFrames(t *testing.T) {
	var frames []Progress
	res, err := RunCtxProgress(context.Background(), "crc64", Config{Scale: 0.04},
		func(p Progress) { frames = append(frames, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("%d frames, want at least one progress frame and the final one", len(frames))
	}
	for i, p := range frames {
		if p.Label != "crc64" || p.Target == 0 || p.Pct < 0 || p.Pct > 1 {
			t.Errorf("frame %d: label %q target %d pct %v", i, p.Label, p.Target, p.Pct)
		}
	}
	if p := frames[0]; p.IntervalCycles == 0 || p.WritesByType == [3]uint64{} {
		t.Errorf("first frame has no interval window or write mix: %+v", p)
	}
	last := frames[len(frames)-1]
	if !last.Final || last.Pct != 1 || last.Insts != res.Instructions || last.Cycles != res.Cycles {
		t.Errorf("final frame %+v, want Final at pct 1 with the Result's %d insts / %d cycles",
			last, res.Instructions, res.Cycles)
	}
}

func TestCheckMode(t *testing.T) {
	// A hardened run must produce the same measurements as a plain one —
	// the checkers observe, they never steer.
	checked, err := Run("qsort", Config{Scale: 0.05, Check: true})
	if err != nil {
		t.Fatalf("hardened run failed: %v", err)
	}
	plain, err := Run("qsort", Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if checked.Instructions != plain.Instructions || checked.Cycles != plain.Cycles {
		t.Errorf("check mode changed the run: %d inst / %d cyc vs %d / %d",
			checked.Instructions, checked.Cycles, plain.Instructions, plain.Cycles)
	}
	if _, err := Run("qsort", Config{Scale: 0.05, Check: true, CheckInterval: 256,
		Organization: Baseline}); err != nil {
		t.Errorf("hardened baseline run failed: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Organization: ContentAware, DPlusN: 20, ShortRegs: 8, LongRegs: 48},
		{Organization: Unlimited, Scale: 1},
		{Check: true, CheckInterval: 64},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", cfg, err)
		}
	}
	for name, cfg := range map[string]Config{
		"unknown organization": {Organization: "bogus"},
		"d+n too small":        {DPlusN: 2},
		"negative scale":       {Scale: -1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCustomCARFParameters(t *testing.T) {
	res, err := Run("hashprobe", Config{
		Organization: ContentAware,
		DPlusN:       24, ShortRegs: 16, LongRegs: 64,
		Scale: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Error("custom parameters produced no result")
	}
}
