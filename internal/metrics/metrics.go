// Package metrics is the simulator's unified observability layer: a
// registry of named gauge funcs, ratio rates, and fixed-bucket
// histograms with a zero-allocation hot path, the time series its
// snapshots fill, and machine-readable exporters (JSON lines, CSV,
// Prometheus text, Chrome trace format).
//
// Components register instruments once at construction time and update
// them with plain field arithmetic during simulation; all aggregation,
// derivation (interval rates, ratios), and allocation happens at
// snapshot time, once per sampling interval.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= Bounds[i]; one implicit overflow bucket counts the
// rest. Observe is a linear scan over a handful of bounds plus two
// field increments — no allocation.
type Histogram struct {
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64

	// Interval state, advanced by snapshot.
	prevCount uint64
	prevSum   float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Buckets returns the bucket upper bounds and their counts; the final
// count (one past the last bound) is the overflow bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	return append([]float64(nil), h.bounds...), append([]uint64(nil), h.counts...)
}

// SyncHistogram is a Histogram whose Observe is safe for concurrent
// use. It exists for series fed from many goroutines at once — the
// simulation scheduler's per-run latencies — where the plain Histogram's
// lock-free hot path would race. Snapshot and Read lock it too, so a
// registry holding only SyncHistograms and self-synchronizing gauge
// funcs may be read while its owners are still updating.
type SyncHistogram struct {
	mu sync.Mutex
	h  Histogram
}

// Observe records one observation.
func (h *SyncHistogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Count returns the total number of observations.
func (h *SyncHistogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.count
}

// Sum returns the sum of all observations.
func (h *SyncHistogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.sum
}

// Mean returns the mean observation (0 when empty).
func (h *SyncHistogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Mean()
}

// Buckets returns copies of the bucket upper bounds and counts; the
// final count is the overflow bucket.
func (h *SyncHistogram) Buckets() (bounds []float64, counts []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Buckets()
}

// read returns a consistent (bounds, counts, count, sum) snapshot under
// one lock acquisition.
func (h *SyncHistogram) read() ([]float64, []uint64, uint64, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds, counts := h.h.Buckets()
	return bounds, counts, h.h.count, h.h.sum
}

// intervalMean advances interval state and returns the mean of the
// observations recorded since the previous call (0 if none).
func (h *SyncHistogram) intervalMean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var v float64
	if dc := h.h.count - h.h.prevCount; dc > 0 {
		v = (h.h.sum - h.h.prevSum) / float64(dc)
	}
	h.h.prevCount, h.h.prevSum = h.h.count, h.h.sum
	return v
}

// kind discriminates the instrument union inside the registry.
type kind uint8

const (
	kindGaugeFunc kind = iota
	kindHistogram
	kindSyncHistogram
	kindRatioRate
)

// instrument is one registered series.
type instrument struct {
	name string
	kind kind

	fn    func() float64
	hist  *Histogram
	shist *SyncHistogram

	// RatioRate state: interval delta(num)/delta(den).
	num, den         func() float64
	prevNum, prevDen float64
	ratePrimed       bool
}

// Registry holds named instruments in registration order. It is not
// safe for concurrent use; each simulated core owns its own registry
// (experiment harnesses run one registry per simulation goroutine).
type Registry struct {
	instruments []*instrument
	byName      map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*instrument)}
}

// add registers in. A duplicate name panics: instrument sets are static
// configuration.
func (r *Registry) add(in *instrument) {
	if _, dup := r.byName[in.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", in.name))
	}
	r.instruments = append(r.instruments, in)
	r.byName[in.name] = in
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — the instrument of choice for cumulative totals and occupancies
// already maintained by the component (zero hot-path cost).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.add(&instrument{name: name, kind: kindGaugeFunc, fn: fn})
}

// Histogram registers a fixed-bucket histogram with the given ascending
// upper bounds (an overflow bucket is implicit). Its series value is the
// per-interval mean of new observations.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bound", name))
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.add(&instrument{name: name, kind: kindHistogram, hist: h})
	return h
}

// SyncHistogram registers a fixed-bucket histogram whose Observe is
// safe for concurrent use (see the type). Its series value is the
// per-interval mean of new observations, like Histogram's.
func (r *Registry) SyncHistogram(name string, bounds []float64) *SyncHistogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bound", name))
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
	}
	h := &SyncHistogram{h: Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}}
	r.add(&instrument{name: name, kind: kindSyncHistogram, shist: h})
	return h
}

// RatioRate registers a derived series sampled as
// delta(num)/delta(den) over each interval (0 when den did not move) —
// interval IPC, miss rates, bypass rates, prediction accuracy.
func (r *Registry) RatioRate(name string, num, den func() float64) {
	r.add(&instrument{name: name, kind: kindRatioRate, num: num, den: den})
}

// Names returns the series names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.instruments))
	for i, in := range r.instruments {
		out[i] = in.name
	}
	return out
}

// Len returns the number of registered series.
func (r *Registry) Len() int { return len(r.instruments) }

// Snapshot appends one value per instrument (registration order) to out
// and returns it. It advances interval state (rates, histogram means),
// so exactly one caller — normally the pipeline's RunContext, once per
// frame — should drive it.
// Non-finite values are sanitized to 0 so every export format stays
// valid.
func (r *Registry) Snapshot(out []float64) []float64 {
	for _, in := range r.instruments {
		var v float64
		switch in.kind {
		case kindGaugeFunc:
			v = in.fn()
		case kindHistogram:
			h := in.hist
			if dc := h.count - h.prevCount; dc > 0 {
				v = (h.sum - h.prevSum) / float64(dc)
			}
			h.prevCount, h.prevSum = h.count, h.sum
		case kindSyncHistogram:
			v = in.shist.intervalMean()
		case kindRatioRate:
			num, den := in.num(), in.den()
			if in.ratePrimed {
				if dd := den - in.prevDen; dd != 0 {
					v = (num - in.prevNum) / dd
				}
			} else if den != 0 {
				// First sample: rate over everything so far.
				v = num / den
			}
			in.prevNum, in.prevDen, in.ratePrimed = num, den, true
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out = append(out, v)
	}
	return out
}

// ReadingKind classifies an instrument in a Reading: counters and
// gauges carry one cumulative Value, histograms carry their buckets.
type ReadingKind uint8

const (
	ReadCounter ReadingKind = iota
	ReadGauge
	ReadHistogram
)

// Reading is one instrument's cumulative state at read time. Unlike
// Snapshot values (which are per-interval deltas for histograms and
// rates), readings are whole-life totals — the shape Prometheus
// exposition wants.
type Reading struct {
	Name string
	Kind ReadingKind

	// Value is the cumulative count (counters), current value (gauges
	// and gauge funcs), or cumulative ratio num/den (ratio rates; 0 when
	// den is 0).
	Value float64

	// Histograms only: bucket upper bounds, per-bucket counts (one
	// trailing overflow bucket), total count, and sum of observations.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Read returns one cumulative Reading per instrument in registration
// order. It never advances interval state, so it may be called freely
// alongside Snapshot. It is as concurrency-safe as the instruments
// themselves: self-synchronizing gauge funcs and SyncHistograms may be
// read live, other gauge funcs and plain histograms only once their
// owner is quiescent.
func (r *Registry) Read() []Reading {
	out := make([]Reading, 0, len(r.instruments))
	for _, in := range r.instruments {
		rd := Reading{Name: in.name}
		switch in.kind {
		case kindGaugeFunc:
			rd.Kind = ReadGauge
			rd.Value = in.fn()
		case kindHistogram:
			rd.Kind = ReadHistogram
			rd.Bounds, rd.Counts = in.hist.Buckets()
			rd.Count, rd.Sum = in.hist.count, in.hist.sum
		case kindSyncHistogram:
			rd.Kind = ReadHistogram
			rd.Bounds, rd.Counts, rd.Count, rd.Sum = in.shist.read()
		case kindRatioRate:
			rd.Kind = ReadGauge
			if den := in.den(); den != 0 {
				rd.Value = in.num() / den
			}
		}
		if math.IsNaN(rd.Value) || math.IsInf(rd.Value, 0) {
			rd.Value = 0
		}
		out = append(out, rd)
	}
	return out
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
