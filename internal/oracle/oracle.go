// Package oracle measures value locality in the live integer register
// file, reproducing the methodology behind Figures 1 and 2 of the paper:
// each sampled cycle, all live register values are grouped — by exact
// equality for the classic frequent-value distribution (Figure 1), or by
// their high-order 64−d bits for the (64−d)-similarity distribution
// (Figure 2) — the groups are ranked by population, and the populations
// are accumulated into rank buckets (group 1, group 2, groups 3–4,
// groups 5–8, groups 9–16, REST).
package oracle

import "slices"

// NumBuckets is the number of rank buckets in a distribution.
const NumBuckets = 6

// BucketLabels names the rank buckets, matching the figures' legends.
var BucketLabels = [NumBuckets]string{
	"Group 1", "Group 2", "Group 3..4", "Group 5..8", "Group 9..16", "REST",
}

// bucketOf maps a 1-based group rank to its bucket.
func bucketOf(rank int) int {
	switch {
	case rank <= 1:
		return 0
	case rank == 2:
		return 1
	case rank <= 4:
		return 2
	case rank <= 8:
		return 3
	case rank <= 16:
		return 4
	default:
		return 5
	}
}

// Analyzer accumulates a live-value distribution. D = 0 groups by exact
// value (Figure 1); D > 0 groups values whose high 64−D bits agree
// (Figure 2). Analyzer implements the pipeline's LiveSampler interface.
type Analyzer struct {
	// D is the number of low-order bits ignored when grouping.
	D int
	Counts

	samples uint64
	scratch map[uint64]int
	sizes   []int // Sample's group sizes, reused across samples
}

// NewAnalyzer returns an analyzer grouping values by their high 64−d
// bits (d = 0 for exact-value grouping).
func NewAnalyzer(d int) *Analyzer {
	return &Analyzer{D: d, scratch: make(map[uint64]int)}
}

// Sample accumulates one cycle's live register values.
func (a *Analyzer) Sample(values []uint64) {
	if len(values) == 0 {
		return
	}
	if a.scratch == nil {
		a.scratch = make(map[uint64]int)
	}
	groups := a.scratch
	clear(groups)
	for _, v := range values {
		groups[v>>uint(a.D)]++
	}
	sizes := a.sizes[:0]
	for _, n := range groups {
		sizes = append(sizes, n)
	}
	a.sizes = sizes
	// Ascending sort, read largest first: rank i+1 is sizes[len-1-i].
	slices.Sort(sizes)
	for i := range sizes {
		a.Buckets[bucketOf(i+1)] += uint64(sizes[len(sizes)-1-i])
	}
	a.Total += uint64(len(values))
	a.samples++
}

// Samples returns the number of accumulated cycles.
func (a *Analyzer) Samples() uint64 { return a.samples }

// Counts is an accumulated live-value distribution: the live values
// in each rank bucket and in all. It is a plain value, so per-kernel
// results merge and persist.
type Counts struct {
	Buckets [NumBuckets]uint64
	Total   uint64
}

// Distribution returns the fraction of live values in each rank bucket.
func (c Counts) Distribution() [NumBuckets]float64 {
	var out [NumBuckets]float64
	if c.Total == 0 {
		return out
	}
	for i, n := range c.Buckets {
		out[i] = float64(n) / float64(c.Total)
	}
	return out
}

// Merge folds o into c (used to aggregate across benchmarks).
func (c *Counts) Merge(o Counts) {
	for i := range c.Buckets {
		c.Buckets[i] += o.Buckets[i]
	}
	c.Total += o.Total
}

// Fanout feeds one live-value stream to several analyzers (e.g. d = 0,
// 8, 12, 16 in a single simulation).
type Fanout []*Analyzer

// Sample implements the pipeline's LiveSampler.
func (f Fanout) Sample(values []uint64) {
	for _, a := range f {
		a.Sample(values)
	}
}
