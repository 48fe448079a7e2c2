package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestSyncHistogramBuckets(t *testing.T) {
	h := NewSyncHistogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 2, 3, 8} {
		h.Observe(v)
	}
	rd := h.Read()
	if rd.Name != "h" || rd.Kind != ReadHistogram || len(rd.Bounds) != 3 || len(rd.Counts) != 4 {
		t.Fatalf("reading = %+v", rd)
	}
	want := []uint64{2, 1, 1, 1} // <=1: {0,1}; <=2: {2}; <=4: {3}; over: {8}
	for i, c := range rd.Counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", rd.Counts, want)
		}
	}
	if rd.Count != 5 || rd.Sum != 14 {
		t.Errorf("count %d sum %v, want 5 and 14", rd.Count, rd.Sum)
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
	h := NewSyncHistogram("lat", []float64{1, 10})
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
	rd := h.Read()
	if rd.Count != 800 {
		t.Errorf("count = %d, want 800", rd.Count)
	}
	if len(rd.Bounds) != 2 || len(rd.Counts) != 3 {
		t.Fatalf("buckets = %v / %v", rd.Bounds, rd.Counts)
	}
	var sum uint64
	for _, c := range rd.Counts {
		sum += c
	}
	if sum != 800 {
		t.Errorf("bucket counts sum to %d, want 800", sum)
	}
}

// TestSyncHistogramRead: a Reading is a copy — later observations do
// not reach it, and reading twice changes nothing.
func TestSyncHistogramRead(t *testing.T) {
	h := NewSyncHistogram("lat", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 100, 5} {
		h.Observe(v)
	}
	rd := h.Read()
	h.Observe(0.5)
	if rd.Count != 4 || rd.Sum != 110.5 || rd.Counts[0] != 1 || rd.Counts[1] != 2 || rd.Counts[2] != 1 {
		t.Errorf("reading = %+v, want count 4 sum 110.5 counts [1 2 1]", rd)
	}
	if again := h.Read(); again.Count != 5 || again.Counts[0] != 2 {
		t.Errorf("second read = %+v, want count 5", again)
	}
}
