package pipeline

import (
	"carf/internal/cache"
	"carf/internal/core"
	"carf/internal/metrics"
	"carf/internal/regfile"
)

// reading is one sample's raw state: value copies of the typed counters
// the pipeline and its components keep, plus the occupancies at the
// sample cycle. Every series is read from one.
type reading struct {
	st Stats

	// Stage-width totals over counted cycles: fetched and issued
	// instructions, and commits outside the uncounted cycle() call that
	// commits HALT.
	fetched, issued, committed uint64

	rob, intIQ, fpIQ, lsq uint64

	caches      [3]cache.Stats // L1I, L1D, L2
	gshare, btb [2]uint64      // predictions/correct, lookups/hits

	// The register file: core's counters and Simple/Short/Long
	// occupancy for the content-aware file; the flat file's occupancy
	// (occ[0]) and traffic for a conventional one.
	core          core.Stats
	occ           [3]uint64
	reads, writes uint64
}

// read takes the machine's reading now.
func (c *CPU) read() reading {
	r := reading{
		st:        c.stats,
		fetched:   c.seq,
		issued:    c.issuedTotal,
		committed: c.stats.Instructions - c.haltCommits,
		rob:       uint64(c.rob.Len()),
		intIQ:     uint64(len(c.intIQ)),
		fpIQ:      uint64(len(c.fpIQ)),
		lsq:       uint64(c.lsq.Len()),
		caches:    [3]cache.Stats{c.hier.L1I.Stats(), c.hier.L1D.Stats(), c.hier.L2.Stats()},
	}
	r.gshare[0], r.gshare[1] = c.gshare.Counts()
	r.btb[0], r.btb[1] = c.btb.Counts()
	switch m := c.Model().(type) {
	case *core.File:
		r.core = m.Stats()
		simple, short, long := m.Occupancy()
		r.occ = [3]uint64{uint64(simple), uint64(short), uint64(long)}
	case *regfile.Conventional:
		f := m.Files()[0]
		r.occ[0], r.reads, r.writes = uint64(m.NumTags()-m.FreeTags()), f.Reads, f.Writes
	}
	return r
}

// seriesRow is one exported series. Without den its value is num; with
// den it is num/den, over the whole run when cum is set and otherwise
// over the interval since the previous kept sample. A ratio whose
// denominator did not move is 0.
type seriesRow struct {
	name     string
	num, den func(r *reading) uint64
	cum      bool
}

// seriesGroup is a run of rows exported when on holds (nil: always).
type seriesGroup struct {
	on   func(c *CPU) bool
	rows []seriesRow
}

func count(name string, num func(r *reading) uint64) seriesRow {
	return seriesRow{name: name, num: num}
}

func rate(name string, num, den func(r *reading) uint64) seriesRow {
	return seriesRow{name: name, num: num, den: den}
}

// cacheRows exports one cache level's accesses, misses and miss rate.
func cacheRows(level string, i int) []seriesRow {
	acc := func(r *reading) uint64 { return r.caches[i].Accesses }
	miss := func(r *reading) uint64 { return r.caches[i].Misses }
	return []seriesRow{
		count("cache."+level+".accesses", acc),
		count("cache."+level+".misses", miss),
		rate("cache."+level+".miss_rate", miss, acc),
	}
}

var (
	cycles       = func(r *reading) uint64 { return r.st.Cycles }
	instructions = func(r *reading) uint64 { return r.st.Instructions }
	simHits      = func(r *reading) uint64 { return r.core.SimilarityHits }
	simMisses    = func(r *reading) uint64 { return r.core.SimilarityMisses }
)

// seriesTable is every series Observe.Series can record, in export
// order.
var seriesTable = []seriesGroup{
	{nil, []seriesRow{
		count("pipeline.cycles", cycles),
		count("pipeline.instructions", instructions),
		rate("pipeline.ipc", instructions, cycles),
		{name: "pipeline.ipc_cum", num: instructions, den: cycles, cum: true},
		count("pipeline.branches", func(r *reading) uint64 { return r.st.Branches }),
		count("pipeline.mispredicts", func(r *reading) uint64 { return r.st.Mispredicts }),
		rate("pipeline.mispredict_rate", func(r *reading) uint64 { return r.st.Mispredicts }, func(r *reading) uint64 { return r.st.Branches }),
		count("pipeline.fetch_bubbles", func(r *reading) uint64 { return r.st.FetchBubbles }),
		count("pipeline.int_operands", func(r *reading) uint64 { return r.st.IntOperands }),
		count("pipeline.bypassed_operands", func(r *reading) uint64 { return r.st.BypassedOperands }),
		rate("pipeline.bypass_rate", func(r *reading) uint64 { return r.st.BypassedOperands }, func(r *reading) uint64 { return r.st.IntOperands }),
		count("pipeline.rob_occupancy", func(r *reading) uint64 { return r.rob }),
		count("pipeline.intiq_occupancy", func(r *reading) uint64 { return r.intIQ }),
		count("pipeline.fpiq_occupancy", func(r *reading) uint64 { return r.fpIQ }),
		count("pipeline.lsq_occupancy", func(r *reading) uint64 { return r.lsq }),
		count("pipeline.rename_stall_cycles", func(r *reading) uint64 { return r.st.RenameStallCycles }),
		count("pipeline.long_stall_cycles", func(r *reading) uint64 { return r.st.LongStallCycles }),
		count("pipeline.recovery_stall_cycles", func(r *reading) uint64 { return r.st.RecoveryStallCycles }),
		count("pipeline.port_stall_cycles", func(r *reading) uint64 { return r.st.PortStallCycles }),
		count("pipeline.forced_spills", func(r *reading) uint64 { return r.st.ForcedSpills }),
	}},
	{func(c *CPU) bool { return c.cfg.WrongPath }, []seriesRow{
		count("pipeline.wrongpath_fetched", func(r *reading) uint64 { return r.st.WrongPathFetched }),
		count("pipeline.wrongpath_squashed", func(r *reading) uint64 { return r.st.WrongPathSquashed }),
		count("pipeline.squashes", func(r *reading) uint64 { return r.st.Squashes }),
	}},
	// Mean stage widths per counted cycle.
	{nil, []seriesRow{
		rate("pipeline.fetch_width", func(r *reading) uint64 { return r.fetched }, cycles),
		rate("pipeline.issue_width", func(r *reading) uint64 { return r.issued }, cycles),
		rate("pipeline.commit_width", func(r *reading) uint64 { return r.committed }, cycles),
	}},
	{func(c *CPU) bool { _, ok := c.Model().(*core.File); return ok }, []seriesRow{
		count("core.simple_occupancy", func(r *reading) uint64 { return r.occ[0] }),
		count("core.short_occupancy", func(r *reading) uint64 { return r.occ[1] }),
		count("core.long_occupancy", func(r *reading) uint64 { return r.occ[2] }),
		count("core.similarity_hits", simHits),
		count("core.similarity_misses", simMisses),
		rate("core.similarity_hit_rate", simHits, func(r *reading) uint64 { return r.core.SimilarityHits + r.core.SimilarityMisses }),
		// A similarity miss is a value promoted from a potential Short
		// classification to the Long file: the paper-facing name.
		count("core.short_to_long_promotions", simMisses),
		count("core.short_installs", func(r *reading) uint64 { return r.core.ShortInstalls }),
		count("core.short_install_fails", func(r *reading) uint64 { return r.core.ShortInstallFails }),
		count("core.short_frees", func(r *reading) uint64 { return r.core.ShortFrees }),
		count("core.long_allocs", func(r *reading) uint64 { return r.core.LongAllocs }),
		count("core.long_frees", func(r *reading) uint64 { return r.core.LongFrees }),
		count("core.recovery_events", func(r *reading) uint64 { return r.core.RecoveryEvents }),
		count("core.overflow_spills", func(r *reading) uint64 { return r.core.OverflowSpills }),
		count("core.reads_simple", func(r *reading) uint64 { return r.core.ReadsByType[0] }),
		count("core.writes_simple", func(r *reading) uint64 { return r.core.WritesByType[0] }),
		count("core.reads_short", func(r *reading) uint64 { return r.core.ReadsByType[1] }),
		count("core.writes_short", func(r *reading) uint64 { return r.core.WritesByType[1] }),
		count("core.reads_long", func(r *reading) uint64 { return r.core.ReadsByType[2] }),
		count("core.writes_long", func(r *reading) uint64 { return r.core.WritesByType[2] }),
	}},
	{func(c *CPU) bool { _, ok := c.Model().(*regfile.Conventional); return ok }, []seriesRow{
		count("regfile.occupancy", func(r *reading) uint64 { return r.occ[0] }),
		count("regfile.reads", func(r *reading) uint64 { return r.reads }),
		count("regfile.writes", func(r *reading) uint64 { return r.writes }),
	}},
	{nil, cacheRows("l1i", 0)},
	{nil, cacheRows("l1d", 1)},
	{nil, cacheRows("l2", 2)},
	{nil, []seriesRow{
		count("predictor.gshare.predicts", func(r *reading) uint64 { return r.gshare[0] }),
		count("predictor.gshare.correct", func(r *reading) uint64 { return r.gshare[1] }),
		rate("predictor.gshare.accuracy", func(r *reading) uint64 { return r.gshare[1] }, func(r *reading) uint64 { return r.gshare[0] }),
		count("predictor.btb.lookups", func(r *reading) uint64 { return r.btb[0] }),
		count("predictor.btb.hits", func(r *reading) uint64 { return r.btb[1] }),
		rate("predictor.btb.hit_rate", func(r *reading) uint64 { return r.btb[1] }, func(r *reading) uint64 { return r.btb[0] }),
	}},
}

// series is the sampling state of a run observing Observe.Series: its
// rows, the readings at the previous kept sample and at the newest, and
// the reading being valued (kept here so taking one allocates nothing).
type series struct {
	rows            []seriesRow
	prev, last, cur reading
}

// newSeries selects c's rows from seriesTable.
func newSeries(c *CPU) *series {
	s := new(series)
	for _, g := range seriesTable {
		if g.on == nil || g.on(c) {
			s.rows = append(s.rows, g.rows...)
		}
	}
	return s
}

func (s *series) names() []string {
	out := make([]string, len(s.rows))
	for i, row := range s.rows {
		out[i] = row.name
	}
	return out
}

// values appends one value per row for reading s.cur, its interval
// rates measured from base.
func (s *series) values(out []float64, base *reading) []float64 {
	r := &s.cur
	for _, row := range s.rows {
		v := float64(row.num(r))
		if row.den != nil {
			num, den := v, float64(row.den(r))
			if !row.cum {
				num, den = num-float64(row.num(base)), den-float64(row.den(base))
			}
			v = 0
			if den != 0 {
				v = num / den
			}
		}
		out = append(out, v)
	}
	return out
}

// sample records one sample at the current cycle in the observed Series
// (nil: series off). A series holds at most one sample per cycle, the
// latest: a sample at an already-sampled cycle replaces that one and is
// measured from the sample before it. The closing sample can repeat the
// last slice boundary's cycle with different totals, because the
// cycle() call that commits HALT retires instructions without counting
// a cycle.
func (c *CPU) sample() {
	ts := c.obs.Series
	if ts == nil {
		return
	}
	s := c.series
	s.cur = c.read()
	if n := len(ts.Samples); n > 0 && ts.Samples[n-1].Cycle == c.stats.Cycles {
		last := &ts.Samples[n-1]
		last.Values = s.values(last.Values[:0], &s.prev)
		s.last = s.cur
		return
	}
	ts.Samples = append(ts.Samples, metrics.Sample{
		Cycle:  c.stats.Cycles,
		Values: s.values(make([]float64, 0, len(s.rows)), &s.last),
	})
	s.prev, s.last = s.last, s.cur
}
