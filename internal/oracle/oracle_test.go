package oracle

import (
	"testing"
	"testing/quick"
)

func TestBucketOf(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 100: 5}
	for rank, want := range cases {
		if got := bucketOf(rank); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", rank, got, want)
		}
	}
}

func TestExactGrouping(t *testing.T) {
	a := NewAnalyzer(0)
	// 5 copies of 7, 3 copies of 9, 2 singletons: G1=5/10, G2=3/10,
	// G3..4 = 2/10.
	a.Sample([]uint64{7, 7, 7, 7, 7, 9, 9, 9, 1, 2})
	d := a.Distribution()
	if d[0] != 0.5 || d[1] != 0.3 || d[2] != 0.2 {
		t.Errorf("distribution = %v", d)
	}
	if d[3] != 0 || d[4] != 0 || d[5] != 0 {
		t.Errorf("unexpected tail mass: %v", d)
	}
	if a.Samples() != 1 {
		t.Errorf("samples = %d", a.Samples())
	}
}

func TestSimilarityGrouping(t *testing.T) {
	a := NewAnalyzer(16)
	base := uint64(0x5542_1000_0000)
	// Four values within the same 64KB-aligned group, two in another.
	a.Sample([]uint64{base, base + 1, base + 0xFFFF, base + 0x10,
		base + 0x10_0000, base + 0x10_0008})
	d := a.Distribution()
	if d[0] < 0.66 || d[0] > 0.67 {
		t.Errorf("group 1 fraction = %v, want 4/6", d[0])
	}
	if d[1] < 0.33 || d[1] > 0.34 {
		t.Errorf("group 2 fraction = %v, want 2/6", d[1])
	}
}

func TestUniformValuesLandInRest(t *testing.T) {
	a := NewAnalyzer(0)
	values := make([]uint64, 64)
	for i := range values {
		values[i] = uint64(i) * 0x1_0000_0001
	}
	a.Sample(values)
	d := a.Distribution()
	// 64 singleton groups: 1 in G1, 1 in G2, 2 in G3..4, 4, 8, 48 in REST.
	if d[5] != 48.0/64 {
		t.Errorf("REST fraction = %v, want 0.75", d[5])
	}
}

func TestEmptySampleIgnored(t *testing.T) {
	a := NewAnalyzer(0)
	a.Sample(nil)
	if a.Samples() != 0 {
		t.Error("empty sample counted")
	}
	d := a.Distribution()
	for _, f := range d {
		if f != 0 {
			t.Error("distribution non-zero with no samples")
		}
	}
}

func TestMerge(t *testing.T) {
	a, b := NewAnalyzer(0), NewAnalyzer(0)
	a.Sample([]uint64{1, 1})
	b.Sample([]uint64{2, 3})
	a.Counts.Merge(b.Counts)
	d := a.Distribution()
	// a: both in G1 (2 values); b: G1=1, G2=1. Total: G1=3/4, G2=1/4.
	if d[0] != 0.75 || d[1] != 0.25 {
		t.Errorf("merged distribution = %v", d)
	}
}

func TestFanout(t *testing.T) {
	exact, sim := NewAnalyzer(0), NewAnalyzer(16)
	f := Fanout{exact, sim}
	f.Sample([]uint64{5, 5, 0x5542_1000_0000})
	if exact.Samples() != 1 || sim.Samples() != 1 {
		t.Error("fanout did not reach all analyzers")
	}
}

// Property: the distribution always sums to 1 over non-empty samples,
// and larger d never decreases the group-1 share for the same values
// (coarser grouping merges groups).
func TestDistributionProperties(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := 2 + int(n)%30
		values := make([]uint64, count)
		s := seed
		for i := range values {
			s = s*6364136223846793005 + 1442695040888963407
			values[i] = s >> uint(i%3*8)
		}
		fine, coarse := NewAnalyzer(4), NewAnalyzer(24)
		fine.Sample(values)
		coarse.Sample(values)
		var sum float64
		for _, x := range fine.Distribution() {
			sum += x
		}
		if sum < 0.999 || sum > 1.001 {
			return false
		}
		return coarse.Distribution()[0] >= fine.Distribution()[0]-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStreamAnalyzer(t *testing.T) {
	s := NewStreamAnalyzer(8, 4)
	base := uint64(0x5542_1000_0000)
	s.Note(base) // cold
	s.Note(base + 0x40)
	s.Note(base + 0x80)
	if got := s.Coverage(); got < 0.66 || got > 0.67 {
		t.Errorf("coverage = %v, want 2/3", got)
	}
	// A far address misses; returning within the window hits.
	s.Note(0x7FFF_0000_0000)
	s.Note(base + 0xC0)
	if s.Total != 5 {
		t.Errorf("total = %d", s.Total)
	}
	if got := s.Coverage(); got != 0.6 {
		t.Errorf("coverage = %v, want 3/5", got)
	}
}

func TestStreamAnalyzerWindowEviction(t *testing.T) {
	s := NewStreamAnalyzer(0, 2)
	s.Note(1)
	s.Note(2)
	s.Note(3) // evicts 1
	s.Note(1) // miss: 1 left the window
	if s.Covered != 0 {
		t.Errorf("covered = %d, want 0", s.Covered)
	}
	s.Note(3) // still in window (3 was noted 2 back... window holds {1,3} now)
	if s.Covered != 1 {
		t.Errorf("covered = %d, want 1", s.Covered)
	}
}

func TestStreamAnalyzerMerge(t *testing.T) {
	a, b := NewStreamAnalyzer(8, 4), NewStreamAnalyzer(8, 4)
	a.Note(100)
	a.Note(100)
	b.Note(200)
	a.StreamCounts.Merge(b.StreamCounts)
	if a.Total != 3 {
		t.Errorf("merged total = %d", a.Total)
	}
	if got := a.Coverage(); got < 0.33 || got > 0.34 {
		t.Errorf("merged coverage = %v", got)
	}
}

func TestStreamAnalyzerDefaults(t *testing.T) {
	s := NewStreamAnalyzer(8, 0)
	if s.Window != 64 {
		t.Errorf("default window = %d", s.Window)
	}
	if s.Coverage() != 0 {
		t.Error("idle coverage should be 0")
	}
}

// TestSampleAllocsNothing: Sample reuses its grouping map and sort
// buffer, so after one warm-up call a sample allocates nothing.
func TestSampleAllocsNothing(t *testing.T) {
	a := NewAnalyzer(8)
	values := make([]uint64, 64)
	for i := range values {
		values[i] = uint64(i%5)<<12 | uint64(i)
	}
	a.Sample(values)
	if n := testing.AllocsPerRun(100, func() { a.Sample(values) }); n != 0 {
		t.Errorf("Sample allocates %v times per call, want 0", n)
	}
}
