package core

import (
	"carf/internal/metrics"
	"carf/internal/regfile"
)

// RegisterMetrics registers the content-aware file's observable series
// on reg: per-sub-file occupancy gauges, (64−d)-similarity hit/miss
// counters with an interval hit rate, Short-file install/reclamation
// and Long-file allocation counters, overflow-stall (Recovery State)
// counters, and per-type read/write traffic. The pipeline calls it when
// a run observes its metric series (pipeline.Observe.Series).
func (f *File) RegisterMetrics(reg *metrics.Registry) {
	st := &f.stats
	u := func(p *uint64) func() float64 {
		return func() float64 { return float64(*p) }
	}

	reg.GaugeFunc("core.simple_occupancy", func() float64 {
		return float64(f.p.NumSimple - len(f.freeTags))
	})
	reg.GaugeFunc("core.short_occupancy", func() float64 {
		live := 0
		for i := range f.short {
			if f.short[i].live {
				live++
			}
		}
		return float64(live)
	})
	reg.GaugeFunc("core.long_occupancy", func() float64 {
		return float64(f.p.NumLong - len(f.freeLong))
	})

	hits := u(&st.SimilarityHits)
	misses := u(&st.SimilarityMisses)
	reg.GaugeFunc("core.similarity_hits", hits)
	reg.GaugeFunc("core.similarity_misses", misses)
	reg.RatioRate("core.similarity_hit_rate", hits, func() float64 {
		return float64(st.SimilarityHits + st.SimilarityMisses)
	})
	// A similarity miss is exactly a value promoted from a potential
	// Short classification to the Long file; exported under the
	// paper-facing name as well.
	reg.GaugeFunc("core.short_to_long_promotions", misses)

	reg.GaugeFunc("core.short_installs", u(&st.ShortInstalls))
	reg.GaugeFunc("core.short_install_fails", u(&st.ShortInstallFails))
	reg.GaugeFunc("core.short_frees", u(&st.ShortFrees))
	reg.GaugeFunc("core.long_allocs", u(&st.LongAllocs))
	reg.GaugeFunc("core.long_frees", u(&st.LongFrees))
	reg.GaugeFunc("core.recovery_events", u(&st.RecoveryEvents))
	reg.GaugeFunc("core.overflow_spills", u(&st.OverflowSpills))

	for _, t := range []regfile.ValueType{regfile.TypeSimple, regfile.TypeShort, regfile.TypeLong} {
		t := t
		reg.GaugeFunc("core.reads_"+t.String(), func() float64 {
			return float64(f.stats.ReadsByType[t])
		})
		reg.GaugeFunc("core.writes_"+t.String(), func() float64 {
			return float64(f.stats.WritesByType[t])
		})
	}
}
