package metrics

// Sample is one interval snapshot: the cycle it was taken at and one
// value per series, in Names order.
type Sample struct {
	Cycle  uint64
	Values []float64
}

// TimeSeries is an ordered set of samples plus the series names that
// index each sample's Values.
type TimeSeries struct {
	Names   []string
	Samples []Sample
}

// DefaultInterval is the sampling interval the command-line tools use
// when none is given.
const DefaultInterval = 10_000

// Index returns the Values position of name, or -1.
func (ts TimeSeries) Index(name string) int {
	for i, n := range ts.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Column extracts one series by name across all samples (nil if the
// name is unknown).
func (ts TimeSeries) Column(name string) []float64 {
	idx := ts.Index(name)
	if idx < 0 {
		return nil
	}
	out := make([]float64, len(ts.Samples))
	for i, s := range ts.Samples {
		out[i] = s.Values[idx]
	}
	return out
}

// Last returns the final sample (false when empty).
func (ts TimeSeries) Last() (Sample, bool) {
	if len(ts.Samples) == 0 {
		return Sample{}, false
	}
	return ts.Samples[len(ts.Samples)-1], true
}
