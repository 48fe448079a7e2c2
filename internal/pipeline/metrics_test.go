package pipeline

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"carf/internal/core"
	"carf/internal/harden"
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

// TestGoldenSeries pins the interval series byte for byte: the export
// of qsort at interval 1000 on the content-aware file (JSON lines and
// CSV), on the baseline file (the regfile.* columns) and with wrong-path
// fetch (the pipeline.wrongpath_* and squashes columns) must not move
// when the way the series is sampled changes. Regenerate (only when a
// change is supposed to alter behaviour) with:
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
	series := func(cfg Config, model regfile.Model, interval uint64) (metrics.TimeSeries, Stats) {
		cpu := New(cfg, k.Prog, model)
		var ts metrics.TimeSeries
		st, err := cpu.RunContext(context.Background(), Observe{Every: interval, Series: &ts})
		if err != nil {
			t.Fatal(err)
		}
		return ts, st
	}
	carf := func() regfile.Model { return core.New(core.DefaultParams()) }
	baseline := func() regfile.Model { return regfile.Baseline() }
	wrongPath := DefaultConfig()
	wrongPath.WrongPath = true

	for _, g := range []struct {
		file  string
		cfg   Config
		model func() regfile.Model
		write func(io.Writer, metrics.TimeSeries) error
	}{
		{"golden_series.jsonl", DefaultConfig(), carf, metrics.WriteJSONL},
		{"golden_series.csv", DefaultConfig(), carf, metrics.WriteCSV},
		{"golden_series_baseline.jsonl", DefaultConfig(), baseline, metrics.WriteJSONL},
		{"golden_series_wrongpath.jsonl", wrongPath, carf, metrics.WriteJSONL},
	} {
		ts, _ := series(g.cfg, g.model(), 1000)
		var buf bytes.Buffer
		if err := g.write(&buf, ts); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %d samples to %s", len(ts.Samples), path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("interval series differs from %s (%d bytes, want %d)", path, buf.Len(), len(want))
		}
	}

	every, st := series(DefaultConfig(), carf(), 1)
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
	// The replacing sample's rates are measured from the sample before
	// it, so interval IPC still integrates to every committed
	// instruction, HALT's cycle included.
	var rebuilt float64
	for _, ipc := range every.Column("pipeline.ipc") {
		rebuilt += ipc
	}
	if math.Abs(rebuilt-float64(st.Instructions)) > 1e-6 {
		t.Errorf("interval 1: interval IPC integrates to %.3f instructions, Stats %d", rebuilt, st.Instructions)
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

// TestBundleLeavesSeries: a hardening bundle reads the series without
// moving its interval state, so building one halfway between samples
// leaves the golden series byte for byte, and the bundle carries every
// series.
func TestBundleLeavesSeries(t *testing.T) {
	k, err := workload.ByName("qsort", goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, core.New(core.DefaultParams()))
	var ts metrics.TimeSeries
	cpu.install(Observe{Series: &ts})
	var bundle *harden.Bundle
	for done := false; !done; {
		if done, err = cpu.RunChunk(500); err != nil {
			t.Fatal(err)
		}
		if done || cpu.stats.Cycles%1000 == 0 {
			cpu.sample()
		} else {
			bundle = cpu.buildBundle()
		}
	}
	if _, err := cpu.Finalize(); err != nil {
		t.Fatal(err)
	}
	if bundle == nil || len(bundle.Metrics) != len(ts.Names) || bundle.Metrics[0].Name != ts.Names[0] {
		t.Fatalf("bundle metrics do not cover the %d series: %+v", len(ts.Names), bundle)
	}
	var buf bytes.Buffer
	if err := metrics.WriteJSONL(&buf, ts); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_series.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("building bundles between samples changed the series")
	}
}

// TestSeriesNamesUnique: no two rows of the series table share a name,
// so every export column is one series.
func TestSeriesNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range seriesTable {
		for _, row := range g.rows {
			if seen[row.name] {
				t.Errorf("series %q appears twice", row.name)
			}
			seen[row.name] = true
		}
	}
}
