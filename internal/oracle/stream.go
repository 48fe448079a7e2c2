package oracle

// StreamAnalyzer measures partial value locality in a value *stream*
// (memory addresses or load/store data), rather than in a live-register
// snapshot: an element is covered if its high 64−D bits match one of the
// last Window elements. This backs the paper's §6 observation that
// "both addresses and data have considerable partial value locality"
// exploitable in the memory hierarchy.
type StreamAnalyzer struct {
	// D is the number of low-order bits ignored by the similarity
	// relation; Window is how many recent elements are searched.
	D      int
	Window int
	StreamCounts

	ring []uint64
	pos  int
}

// StreamCounts is a stream's accumulated locality: elements observed,
// and those whose high bits matched a recent element. It is a plain
// value, so per-workload results merge and persist.
type StreamCounts struct {
	Total, Covered uint64
}

// NewStreamAnalyzer returns an analyzer for (64−d)-similarity over a
// sliding window of the given size.
func NewStreamAnalyzer(d, window int) *StreamAnalyzer {
	if window <= 0 {
		window = 64
	}
	return &StreamAnalyzer{D: d, Window: window, ring: make([]uint64, 0, window)}
}

// Note records one stream element.
func (s *StreamAnalyzer) Note(v uint64) {
	key := v >> uint(s.D)
	s.Total++
	for _, k := range s.ring {
		if k == key {
			s.Covered++
			break
		}
	}
	if len(s.ring) < s.Window {
		s.ring = append(s.ring, key)
		return
	}
	s.ring[s.pos] = key
	s.pos = (s.pos + 1) % s.Window
}

// Coverage returns the fraction of elements whose high bits matched a
// recent element.
func (c StreamCounts) Coverage() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Covered) / float64(c.Total)
}

// Merge folds o into c. Window contents do not merge: analyze each
// workload on its own and merge the counts at reporting time.
func (c *StreamCounts) Merge(o StreamCounts) {
	c.Total += o.Total
	c.Covered += o.Covered
}
