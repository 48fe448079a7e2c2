// Package metrics is the simulator's observability vocabulary: the
// time series a run's sampled counters fill, cumulative readings for
// Prometheus exposition, a concurrency-safe fixed-bucket histogram, and
// machine-readable exporters (JSON lines, CSV, Prometheus text, Chrome
// trace format).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// SyncHistogram counts observations into fixed buckets, safe for
// concurrent use: bucket i counts observations <= its i-th bound, and
// one overflow bucket counts the rest. It serves values fed from many
// goroutines at once, such as the scheduler's per-run latencies.
type SyncHistogram struct {
	name   string
	bounds []float64

	mu     sync.Mutex
	counts []uint64
	count  uint64
	sum    float64
}

// NewSyncHistogram returns an empty histogram named name with the given
// ascending bucket upper bounds. Bounds are static configuration: an
// empty or unsorted list panics.
func NewSyncHistogram(name string, bounds []float64) *SyncHistogram {
	if len(bounds) == 0 || !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %q needs ascending bounds, got %v", name, bounds))
	}
	return &SyncHistogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *SyncHistogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Read returns the histogram's cumulative state as one consistent
// Reading.
func (h *SyncHistogram) Read() Reading {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Reading{Name: h.name, Kind: ReadHistogram, Count: h.count, Sum: h.sum,
		Bounds: append([]float64(nil), h.bounds...), Counts: append([]uint64(nil), h.counts...)}
}

// ReadingKind classifies an instrument in a Reading: counters and
// gauges carry one cumulative Value, histograms carry their buckets.
type ReadingKind uint8

const (
	ReadCounter ReadingKind = iota
	ReadGauge
	ReadHistogram
)

// Reading is one instrument's cumulative state at read time: a
// whole-life total, the shape Prometheus exposition wants.
type Reading struct {
	Name string
	Kind ReadingKind

	// Value is the cumulative count (counters) or current value
	// (gauges).
	Value float64

	// Histograms only: bucket upper bounds, per-bucket counts (one
	// trailing overflow bucket), total count, and sum of observations.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Summary describes one series' distribution across samples.
type Summary struct {
	Mean, Stddev, Min, Max float64
	N                      int
}

// Summarize computes mean/stddev/min/max of xs (zero Summary if empty).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Min: xs[0], Max: xs[0], N: len(xs)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Stddev = math.Sqrt(sq / float64(len(xs)))
	return s
}
