package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carf/internal/metrics"
)

// Regenerate the golden exposition file with:
//
//	go test ./internal/telemetry -run TestPrometheusGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden Prometheus exposition")

// goldenReadings builds one reading of every kind with fixed values, so
// the golden file pins the exposition format end to end: type lines,
// name sanitization, cumulative le buckets, +Inf, _sum/_count. All but
// one are Reading literals, the way the store, the scheduler and the
// daemon export theirs; the last histogram comes from a SyncHistogram.
func goldenReadings() []metrics.Reading {
	sh := metrics.NewSyncHistogram("sched.sim_wall_seconds", []float64{0.25, 2.5})
	sh.Observe(0.125)
	sh.Observe(1)
	return []metrics.Reading{
		{Name: "pipeline.commits", Kind: metrics.ReadCounter, Value: 12345},
		{Name: "rob.occupancy", Kind: metrics.ReadGauge, Value: 42.5},
		{Name: "sched.hit_rate", Kind: metrics.ReadGauge, Value: 0.625},
		// Observations 0.0005, 0.002, 0.003, 0.05, 0.5 and 30.
		{Name: "sched.queue-wait_seconds", Kind: metrics.ReadHistogram, Bounds: []float64{0.001, 0.01, 0.1, 1},
			Counts: []uint64{1, 2, 1, 1, 1}, Count: 6, Sum: 30.5555},
		sh.Read(),
		{Name: "pipeline.ipc", Kind: metrics.ReadGauge, Value: 0.75},
	}
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "carf", goldenReadings()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden data (run with -update-golden to record): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestPrometheusExpositionShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "carf", goldenReadings()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Names are sanitized into the metric-name alphabet and prefixed.
	for _, want := range []string{
		"carf_pipeline_commits 12345",
		"carf_rob_occupancy 42.5",
		"carf_sched_hit_rate 0.625",
		"# TYPE carf_sched_queue_wait_seconds histogram",
		"carf_sched_queue_wait_seconds_count 6",
		"carf_sched_sim_wall_seconds_count 2",
		"carf_pipeline_ipc 0.75",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Buckets must be cumulative and capped by +Inf = count.
	if !strings.Contains(text, `carf_sched_queue_wait_seconds_bucket{le="0.001"} 1`) ||
		!strings.Contains(text, `carf_sched_queue_wait_seconds_bucket{le="0.01"} 3`) ||
		!strings.Contains(text, `carf_sched_queue_wait_seconds_bucket{le="1"} 5`) ||
		!strings.Contains(text, `carf_sched_queue_wait_seconds_bucket{le="+Inf"} 6`) {
		t.Errorf("cumulative buckets wrong:\n%s", text)
	}
	// No character outside the exposition alphabet sneaks into names.
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, " {")]
		for i := 0; i < len(name); i++ {
			c := name[i]
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
			if !ok {
				t.Errorf("metric name %q contains invalid byte %q", name, c)
			}
		}
	}
}

func TestPromNameEdgeCases(t *testing.T) {
	for in, want := range map[string]string{
		"sched.runs":     "sched_runs",
		"queue-wait":     "queue_wait",
		"a b":            "a_b",
		"9lives":         "_9lives",
		"ok_name:suffix": "ok_name:suffix",
	} {
		if got := promName("", in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promName("carf", "9x"); got != "carf_9x" {
		t.Errorf("namespaced digit start = %q", got)
	}
}
