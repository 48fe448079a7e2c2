package metrics

import (
	"math"
	"sync"
	"testing"
)

// TestGaugeFuncSnapshot: a gauge func reads its component's own field
// at snapshot time, for cumulative counts and moving values alike.
func TestGaugeFuncSnapshot(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	var g float64
	reg.GaugeFunc("c", func() float64 { return float64(c) })
	reg.GaugeFunc("g", func() float64 { return g })
	c += 3
	c++
	g = 2.5
	g += -1
	vals := reg.Snapshot(nil)
	if len(vals) != 2 || vals[0] != 4 || vals[1] != 1.5 {
		t.Fatalf("snapshot = %v, want [4 1.5]", vals)
	}
	c++
	if vals := reg.Snapshot(nil); vals[0] != 5 {
		t.Errorf("second snapshot = %v, want the cumulative 5", vals[0])
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg := NewRegistry()
	reg.GaugeFunc("x", func() float64 { return 0 })
	reg.Histogram("x", []float64{1})
}

func TestGaugeFuncSanitizesNonFinite(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("nan", func() float64 { return math.NaN() })
	reg.GaugeFunc("inf", func() float64 { return math.Inf(1) })
	vals := reg.Snapshot(nil)
	if vals[0] != 0 || vals[1] != 0 {
		t.Fatalf("non-finite values not sanitized: %v", vals)
	}
}

func TestHistogramBucketsAndIntervalMean(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 2, 3, 8} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("buckets: %v %v", bounds, counts)
	}
	want := []uint64{2, 1, 1, 1} // <=1: {0,1}; <=2: {2}; <=4: {3}; over: {8}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", counts, want)
		}
	}
	if h.Mean() != 14.0/5 {
		t.Errorf("mean = %v", h.Mean())
	}
	// First snapshot: interval mean over everything so far.
	if vals := reg.Snapshot(nil); vals[0] != 14.0/5 {
		t.Errorf("interval mean = %v, want %v", vals[0], 14.0/5)
	}
	// New interval: only the new observations count.
	h.Observe(10)
	if vals := reg.Snapshot(nil); vals[0] != 10 {
		t.Errorf("interval mean = %v, want 10", vals[0])
	}
	// Empty interval: 0.
	if vals := reg.Snapshot(nil); vals[0] != 0 {
		t.Errorf("empty interval mean = %v, want 0", vals[0])
	}
}

func TestRatioRate(t *testing.T) {
	reg := NewRegistry()
	var num, den float64
	reg.RatioRate("r", func() float64 { return num }, func() float64 { return den })
	num, den = 2, 4
	if vals := reg.Snapshot(nil); vals[0] != 0.5 {
		t.Fatalf("first sample rate = %v, want 0.5", vals[0])
	}
	num, den = 5, 8
	if vals := reg.Snapshot(nil); vals[0] != 0.75 {
		t.Fatalf("interval rate = %v, want 0.75", vals[0])
	}
	// Denominator stalled: rate is 0, not NaN.
	if vals := reg.Snapshot(nil); vals[0] != 0 {
		t.Fatalf("stalled rate = %v, want 0", vals[0])
	}
}

func TestTimeSeriesColumn(t *testing.T) {
	ts := TimeSeries{
		Names: []string{"a", "b"},
		Samples: []Sample{
			{Cycle: 1, Values: []float64{1, 10}},
			{Cycle: 2, Values: []float64{2, 20}},
		},
	}
	col := ts.Column("b")
	if len(col) != 2 || col[0] != 10 || col[1] != 20 {
		t.Errorf("column b = %v", col)
	}
	if ts.Column("missing") != nil {
		t.Error("missing column should be nil")
	}
	if ts.Index("a") != 0 || ts.Index("zzz") != -1 {
		t.Error("Index misbehaves")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("stddev = %v", s.Stddev)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestFormatForPath(t *testing.T) {
	for _, tc := range []struct {
		path string
		want Format
	}{
		{"m.jsonl", FormatJSONL},
		{"m.json", FormatJSONL},
		{"m.CSV", FormatCSV},
		{"out/dir.csv/m.JSONL", FormatJSONL},
	} {
		got, err := FormatForPath(tc.path)
		if err != nil || got != tc.want {
			t.Errorf("FormatForPath(%q) = %v, %v; want %v", tc.path, got, err, tc.want)
		}
	}
	for _, path := range []string{"metrics.txt", "metrics", "m.jsonl.gz", "archive.csv.bak"} {
		if _, err := FormatForPath(path); err == nil {
			t.Errorf("FormatForPath(%q) accepted an unknown extension", path)
		}
	}
}

func TestSyncHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.SyncHistogram("lat", []float64{1, 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Observe(float64(g%3) * 5)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 800 {
		t.Errorf("count = %d, want 800", h.Count())
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 2 || len(counts) != 3 {
		t.Fatalf("buckets = %v / %v", bounds, counts)
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if sum != 800 {
		t.Errorf("bucket counts sum to %d, want 800", sum)
	}
	// The registry series value is the per-interval mean, like Histogram.
	snap := r.Snapshot(nil)
	if want := h.Sum() / 800; snap[0] != want {
		t.Errorf("first snapshot = %v, want mean %v", snap[0], want)
	}
	if snap := r.Snapshot(nil); snap[0] != 0 {
		t.Errorf("quiet interval mean = %v, want 0", snap[0])
	}
}

func TestRegistryRead(t *testing.T) {
	r := NewRegistry()
	var occ float64
	r.GaugeFunc("occupancy", func() float64 { return occ })
	r.GaugeFunc("fn", func() float64 { return 7 })
	h := r.Histogram("lat", []float64{1, 10})
	var num, den float64
	r.RatioRate("ipc", func() float64 { return num }, func() float64 { return den })

	occ = 2.5
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	num, den = 30, 10

	// Interleave a Snapshot to prove Read does not perturb (and is not
	// perturbed by) interval state.
	r.Snapshot(nil)
	h.Observe(5)

	reads := r.Read()
	want := map[string]struct {
		kind  ReadingKind
		value float64
	}{
		"occupancy": {ReadGauge, 2.5},
		"fn":        {ReadGauge, 7},
		"ipc":       {ReadGauge, 3},
	}
	byName := map[string]Reading{}
	for _, rd := range reads {
		byName[rd.Name] = rd
	}
	for name, w := range want {
		rd, ok := byName[name]
		if !ok {
			t.Fatalf("missing reading %s", name)
		}
		if rd.Kind != w.kind || rd.Value != w.value {
			t.Errorf("%s = kind %d value %v, want kind %d value %v", name, rd.Kind, rd.Value, w.kind, w.value)
		}
	}
	hr := byName["lat"]
	if hr.Kind != ReadHistogram || hr.Count != 4 || hr.Sum != 110.5 {
		t.Errorf("histogram reading = %+v, want count 4 sum 110.5", hr)
	}
	if len(hr.Bounds) != 2 || len(hr.Counts) != 3 {
		t.Fatalf("histogram reading buckets = %v / %v", hr.Bounds, hr.Counts)
	}
	if hr.Counts[0] != 1 || hr.Counts[1] != 2 || hr.Counts[2] != 1 {
		t.Errorf("histogram reading counts = %v", hr.Counts)
	}
	// Cumulative readings must be identical on a second call.
	again := r.Read()
	for i := range again {
		if again[i].Name == "lat" && again[i].Count != 4 {
			t.Errorf("second read count = %d", again[i].Count)
		}
	}
}
