package experiments

import (
	"fmt"

	"carf/internal/oracle"
	"carf/internal/sched"
	"carf/internal/stats"
	"carf/internal/vm"
	"carf/internal/workload"
)

// memWindow is the recent-access window used for the stream study.
const memWindow = 64

// Memloc quantifies the §6 memory-hierarchy direction: how much partial
// value locality exists in the *memory traffic* — effective addresses
// and transferred data — measured as the fraction of accesses whose high
// 64−d bits match one of the previous 64 accesses. This study needs only
// functional execution, so it runs on the golden-model VM.
func Memloc(opt Options) (Result, error) {
	ds := []int{8, 16, 24}
	type streams struct {
		addr []*oracle.StreamAnalyzer
		data []*oracle.StreamAnalyzer
	}
	newStreams := func() streams {
		var s streams
		for _, d := range ds {
			s.addr = append(s.addr, oracle.NewStreamAnalyzer(d, memWindow))
			s.data = append(s.data, oracle.NewStreamAnalyzer(d, memWindow))
		}
		return s
	}

	suites := []struct {
		label   string
		kernels []*workload.Ref
	}{
		{"SPECint-like", workload.IntSuite(opt.Scale)},
		{"SPECfp-like", workload.FPSuite(opt.Scale)},
	}

	tb := stats.Table{
		Title:  "Partial value locality in memory traffic (§6; 64-access window)",
		Header: []string{"suite", "stream", "d=8", "d=16", "d=24"},
	}
	for _, suite := range suites {
		// One scheduler job per kernel, keyed on the analysis inputs
		// (functional execution only — no pipeline configuration). The
		// cached streams are read-only; Merge copies their sums out.
		perKernel := make([]streams, len(suite.kernels))
		err := sched.ForEach(len(suite.kernels), func(i int) error {
			r := suite.kernels[i]
			key := sched.KeyOf("memloc", r.Name, opt.Scale, ds, memWindow)
			v, prov, err := opt.Sched.DoCtx(opt.Ctx, key, runLabel("memloc", r.Name, "vm"), true, func() (any, error) {
				k, err := r.Build()
				if err != nil {
					return nil, err
				}
				local := newStreams()
				m := vm.New(k.Prog)
				defer m.Mem.Release()
				for !m.Halted {
					_, eff, err := m.Step()
					if err != nil {
						return nil, fmt.Errorf("%s: %w", k.Name, err)
					}
					if !eff.Mem {
						continue
					}
					value := eff.RdValue
					if eff.Store {
						value = eff.StoreVal
					}
					for j := range ds {
						local.addr[j].Note(eff.Addr)
						local.data[j].Note(value)
					}
				}
				return local, nil
			})
			opt.Tally.Record(prov, err)
			if err != nil {
				return err
			}
			perKernel[i] = v.(streams)
			return nil
		})
		if err != nil {
			return Result{}, err
		}
		merged := newStreams()
		for i := range suite.kernels {
			for j := range ds {
				merged.addr[j].Merge(perKernel[i].addr[j])
				merged.data[j].Merge(perKernel[i].data[j])
			}
		}
		addrRow := []string{suite.label, "addresses"}
		dataRow := []string{suite.label, "data"}
		for j := range ds {
			addrRow = append(addrRow, stats.Pct(merged.addr[j].Coverage()))
			dataRow = append(dataRow, stats.Pct(merged.data[j].Coverage()))
		}
		tb.Rows = append(tb.Rows, addrRow, dataRow)
	}
	tb.AddNote("high address coverage is expected (spatial locality); substantial data coverage is the §6 claim")
	return Result{Name: "memloc", Tables: []stats.Table{tb}}, nil
}
