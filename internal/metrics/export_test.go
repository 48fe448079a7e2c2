package metrics

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSeries is a deterministic two-and-a-half-interval series with
// a count, a fractional gauge, an interval rate and a mean width.
func goldenSeries() TimeSeries {
	return TimeSeries{
		Names: []string{"ops", "occupancy", "hit.rate", "width"},
		Samples: []Sample{
			{Cycle: 10, Values: []float64{5, 3.5, 0.5, 2}},
			{Cycle: 20, Values: []float64{12, 1.25, 0.75, 8}},
			{Cycle: 25, Values: []float64{12, 1.25, 0, 0}},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestWriteJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, goldenSeries()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "series.jsonl.golden", buf.Bytes())

	// Every line must be a standalone JSON object with a cycle field.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var obj map[string]float64
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %q not valid JSON: %v", line, err)
		}
		if _, ok := obj["cycle"]; !ok {
			t.Fatalf("line %q missing cycle", line)
		}
	}
}

func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, goldenSeries()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "series.csv.golden", buf.Bytes())

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 samples
		t.Fatalf("csv lines = %d, want 4", len(lines))
	}
	cols := len(strings.Split(lines[0], ","))
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != cols {
			t.Fatalf("ragged csv row %q: %d columns, header has %d", l, got, cols)
		}
	}
}

func TestCSVEscape(t *testing.T) {
	ts := TimeSeries{
		Names:   []string{`odd,"name`},
		Samples: []Sample{{Cycle: 1, Values: []float64{1}}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"odd,""name"`) {
		t.Errorf("csv header not escaped: %q", buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []ChromeEvent{
		{Name: "execute", Ph: "X", Ts: 10, Dur: 0, Pid: 1, Tid: 2,
			Args: map[string]any{"seq": 7}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	for _, field := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
		if _, ok := parsed.TraceEvents[0][field]; !ok {
			t.Errorf("event missing %q (zero values must still serialize)", field)
		}
	}

	// Empty input still produces a loadable trace.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("empty trace = %q", buf.String())
	}
}
