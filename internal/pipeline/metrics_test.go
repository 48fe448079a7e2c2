package pipeline

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"carf/internal/core"
	"carf/internal/metrics"
	"carf/internal/regfile"
	"carf/internal/workload"
)

// TestMetricsReconcile runs a kernel with the metric series observed
// and checks that the sampled series reconcile with the end-of-run
// Stats totals: cumulative series end at the totals, and integrating
// the interval IPC over the cycle deltas reproduces the committed
// instruction count.
func TestMetricsReconcile(t *testing.T) {
	k, err := workload.ByName("qsort", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	model := core.New(core.DefaultParams())
	cpu := New(DefaultConfig(), k.Prog, model)
	var ts metrics.TimeSeries
	st, err := cpu.RunContext(context.Background(), Observe{Every: 1000, Series: &ts})
	if err != nil {
		t.Fatal(err)
	}

	if len(ts.Samples) < 3 {
		t.Fatalf("only %d samples for a %d-cycle run at interval 1000", len(ts.Samples), st.Cycles)
	}
	for i := 1; i < len(ts.Samples); i++ {
		if ts.Samples[i].Cycle <= ts.Samples[i-1].Cycle {
			t.Fatalf("sample cycles not increasing: %d after %d",
				ts.Samples[i].Cycle, ts.Samples[i-1].Cycle)
		}
	}
	last, _ := ts.Last()
	if last.Cycle != st.Cycles {
		t.Errorf("final sample at cycle %d, run ended at %d", last.Cycle, st.Cycles)
	}

	wantTotal := map[string]float64{
		"pipeline.cycles":           float64(st.Cycles),
		"pipeline.instructions":     float64(st.Instructions),
		"pipeline.branches":         float64(st.Branches),
		"pipeline.mispredicts":      float64(st.Mispredicts),
		"pipeline.int_operands":     float64(st.IntOperands),
		"core.similarity_hits":      float64(model.Stats().SimilarityHits),
		"core.similarity_misses":    float64(model.Stats().SimilarityMisses),
		"cache.l1d.accesses":        float64(cpu.Hierarchy().L1D.Stats().Accesses),
		"predictor.gshare.predicts": float64(st.Branches),
	}
	for name, want := range wantTotal {
		idx := ts.Index(name)
		if idx < 0 {
			t.Fatalf("series %q not registered", name)
		}
		if got := last.Values[idx]; got != want {
			t.Errorf("%s final sample = %v, want %v", name, got, want)
		}
	}

	// The similarity counters mirror the per-type write counts exactly.
	cs := model.Stats()
	if cs.SimilarityHits != cs.WritesByType[1] || cs.SimilarityMisses != cs.WritesByType[2] {
		t.Errorf("similarity hit/miss (%d/%d) do not match short/long writes (%d/%d)",
			cs.SimilarityHits, cs.SimilarityMisses, cs.WritesByType[1], cs.WritesByType[2])
	}

	// Integrate interval IPC over cycle deltas: must reproduce the
	// committed instruction total (floating-point tolerance only).
	ipcIdx := ts.Index("pipeline.ipc")
	if ipcIdx < 0 {
		t.Fatal("pipeline.ipc not registered")
	}
	var rebuilt, prevCycle float64
	for _, sm := range ts.Samples {
		rebuilt += sm.Values[ipcIdx] * (float64(sm.Cycle) - prevCycle)
		prevCycle = float64(sm.Cycle)
	}
	if math.Abs(rebuilt-float64(st.Instructions)) > 1e-6*float64(st.Instructions)+1e-3 {
		t.Errorf("interval IPC integrates to %.3f instructions, want %d", rebuilt, st.Instructions)
	}

	// Occupancy gauges stay within their structural bounds.
	p := core.DefaultParams()
	for name, bound := range map[string]float64{
		"core.short_occupancy":   float64(p.NumShort),
		"core.long_occupancy":    float64(p.NumLong),
		"core.simple_occupancy":  float64(p.NumSimple),
		"pipeline.rob_occupancy": float64(DefaultConfig().ROBSize),
	} {
		for _, v := range ts.Column(name) {
			if v < 0 || v > bound {
				t.Errorf("%s sample %v outside [0, %v]", name, v, bound)
			}
		}
	}
}

// TestMetricsRequiredSeries pins the acceptance-level series names the
// tooling documents: interval IPC, Short/Long occupancy, and cache
// miss rate must exist for both organizations that expose them.
func TestMetricsRequiredSeries(t *testing.T) {
	k, err := workload.ByName("histo", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, core.New(core.DefaultParams()))
	var ts metrics.TimeSeries
	if _, err := cpu.RunContext(context.Background(), Observe{Every: 500, Series: &ts}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"pipeline.ipc",
		"core.short_occupancy",
		"core.long_occupancy",
		"cache.l1d.miss_rate",
		"pipeline.commit_width",
	} {
		if ts.Index(name) < 0 {
			t.Errorf("required series %q missing (have %v)", name, ts.Names)
		}
	}
}

// TestGoldenSeries pins the interval series byte for byte: the JSONL
// export of qsort on the content-aware file at interval 1000 must not
// move when the way the series is sampled changes. Regenerate (only
// when a change is supposed to alter behaviour) with:
//
//	go test ./internal/pipeline -run TestGoldenSeries -update-golden
//
// The interval-1 case samples every counted cycle, so the closing
// sample always lands on a cycle already sampled: exactly one sample
// per cycle 1..Stats.Cycles, none repeated.
func TestGoldenSeries(t *testing.T) {
	k, err := workload.ByName("qsort", goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	series := func(interval uint64) (metrics.TimeSeries, Stats) {
		cpu := New(DefaultConfig(), k.Prog, core.New(core.DefaultParams()))
		var ts metrics.TimeSeries
		st, err := cpu.RunContext(context.Background(), Observe{Every: interval, Series: &ts})
		if err != nil {
			t.Fatal(err)
		}
		return ts, st
	}

	ts, _ := series(1000)
	var buf bytes.Buffer
	if err := metrics.WriteJSONL(&buf, ts); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_series.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d samples to %s", len(ts.Samples), path)
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("interval series differs from %s (%d bytes, want %d)", path, buf.Len(), len(want))
		}
	}

	every, st := series(1)
	if uint64(len(every.Samples)) != st.Cycles {
		t.Fatalf("interval 1: %d samples for a %d-cycle run", len(every.Samples), st.Cycles)
	}
	for i, sm := range every.Samples {
		if sm.Cycle != uint64(i+1) {
			t.Fatalf("interval 1: sample %d at cycle %d, want %d", i, sm.Cycle, i+1)
		}
	}
	// The cycle() call that commits HALT retires instructions without
	// counting a cycle, so the closing sample replaces the last slice
	// boundary's sample at the same cycle.
	last := every.Samples[len(every.Samples)-1].Values
	for i, name := range every.Names {
		if name == "pipeline.instructions" && (uint64(last[i]) != st.Instructions || st.Instructions != 10094) {
			t.Errorf("interval 1: closing sample counts %v instructions, Stats %d (want 10094)", last[i], st.Instructions)
		}
	}
}

// TestSeriesIntervalAndFinal: series samples fall on every multiple of
// Every, each with a progress frame at the same cycle, plus one closing
// sample at the run's last cycle that reconciles with the returned
// Stats.
func TestSeriesIntervalAndFinal(t *testing.T) {
	k, err := workload.ByName("crc64", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, regfile.Baseline())
	var ts metrics.TimeSeries
	var frames []uint64
	st, err := cpu.RunContext(context.Background(), Observe{
		Every:  700,
		Series: &ts,
		Frame: func(p Progress) {
			if !p.Final {
				frames = append(frames, p.Cycles)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(ts.Samples)
	if n < 3 || len(frames) != n-1 {
		t.Fatalf("%d samples and %d frames for a %d-cycle run at Every 700", n, len(frames), st.Cycles)
	}
	for i, sm := range ts.Samples[:n-1] {
		if want := uint64(i+1) * 700; sm.Cycle != want || frames[i] != want {
			t.Fatalf("sample %d at cycle %d, frame at %d, want both at %d", i, sm.Cycle, frames[i], want)
		}
	}
	last := ts.Samples[n-1]
	if last.Cycle != st.Cycles || last.Cycle%700 == 0 {
		t.Fatalf("closing sample at cycle %d, run ended at %d", last.Cycle, st.Cycles)
	}
	if got := last.Values[ts.Index("pipeline.cycles")]; got != float64(st.Cycles) {
		t.Errorf("closing sample pipeline.cycles = %v, want %d", got, st.Cycles)
	}
}
