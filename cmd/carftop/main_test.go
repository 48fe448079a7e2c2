package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"carf/internal/sched"
	"carf/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/render.golden")

// TestRenderGolden pins carftop's screen for a synthetic /runs
// document: a running run with a known target, one without, and
// completed hit, miss and error rows. The header line carries the wall
// clock and is left out.
func TestRenderGolden(t *testing.T) {
	doc := telemetry.RunsDocument{
		InFlight: []telemetry.RunRecord{
			{ID: 7, Label: "sim/qsort/content-aware", State: "running", Progress: &sched.Progress{
				Cycles: 81920, Insts: 40960, Target: 97531, Pct: 40960.0 / 97531,
				IntervalIPC: 0.8125, InstsPerSec: 2.5e6, ETASeconds: 22.6}},
			{ID: 8, Label: "sim/a-label-long-enough-to-be-clipped/baseline", State: "running", Progress: &sched.Progress{
				Cycles: 4096, Insts: 3100, Pct: -1, IntervalIPC: 0.7568359375, InstsPerSec: 1.25e6}},
		},
		Completed: []telemetry.RunRecord{
			{ID: 3, Label: "sim/crc64/baseline", State: "done", Outcome: "hit"},
			{ID: 4, Label: "sim/crc64/content-aware", State: "done", Outcome: "miss", SimWallMs: 1234.5678},
			{ID: 5, Label: "sim/fft/content-aware", State: "done", Outcome: "miss", SimWallMs: 12.3, Err: "boom"},
		},
		CompletedTotal: 9,
		Sched: &sched.Stats{Workers: 2, CacheEntries: 4, Runs: 9, Misses: 5, Hits: 3,
			DiskHits: 1, Joins: 0, Errors: 1},
	}
	var buf bytes.Buffer
	render(&buf, "127.0.0.1:9090", doc)
	header, got, _ := strings.Cut(buf.String(), "\n")
	if !strings.HasPrefix(header, "carftop — 127.0.0.1:9090 — ") {
		t.Errorf("header = %q", header)
	}
	const path = "testdata/render.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got != string(want) {
		t.Errorf("render differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
