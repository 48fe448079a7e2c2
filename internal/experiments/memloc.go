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

// MemlocOut is one kernel's memory-traffic value: per d, the counts of
// its address and data streams.
type MemlocOut struct{ Addr, Data []oracle.StreamCounts }

// Memloc quantifies the §6 memory-hierarchy direction: how much partial
// value locality exists in the *memory traffic* — effective addresses
// and transferred data — measured as the fraction of accesses whose high
// 64−d bits match one of the previous 64 accesses. This study needs only
// functional execution, so it runs on the golden-model VM.
func Memloc(opt Options) (Result, error) {
	ds := []int{8, 16, 24}
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
		// One run per kernel, keyed on the analysis inputs (functional
		// execution only — no pipeline configuration).
		perKernel := make([]MemlocOut, len(suite.kernels))
		err := sched.ForEach(len(suite.kernels), func(i int) error {
			r := suite.kernels[i]
			key := sched.KeyOf("memloc", r.Name, opt.Scale, ds, memWindow)
			var err error
			// A run takes milliseconds on the VM, so it reports one Final
			// frame and is not sliced for cancellation.
			perKernel[i], err = do(opt, key, runLabel("memloc", r.Name, "vm"), func(report sched.ProgressFunc) (MemlocOut, error) {
				k, err := r.Build()
				if err != nil {
					return MemlocOut{}, err
				}
				addr := make([]*oracle.StreamAnalyzer, len(ds))
				data := make([]*oracle.StreamAnalyzer, len(ds))
				for j, d := range ds {
					addr[j], data[j] = oracle.NewStreamAnalyzer(d, memWindow), oracle.NewStreamAnalyzer(d, memWindow)
				}
				m := vm.New(k.Prog)
				defer m.Mem.Release()
				for !m.Halted {
					_, eff, err := m.Step()
					if err != nil {
						return MemlocOut{}, fmt.Errorf("%s: %w", k.Name, err)
					}
					if !eff.Mem {
						continue
					}
					value := eff.RdValue
					if eff.Store {
						value = eff.StoreVal
					}
					for j := range ds {
						addr[j].Note(eff.Addr)
						data[j].Note(value)
					}
				}
				if report != nil {
					report(sched.Progress{Insts: m.InstCount, Target: m.InstCount, Final: true})
				}
				out := MemlocOut{Addr: make([]oracle.StreamCounts, len(ds)), Data: make([]oracle.StreamCounts, len(ds))}
				for j := range ds {
					out.Addr[j], out.Data[j] = addr[j].StreamCounts, data[j].StreamCounts
				}
				return out, nil
			})
			return err
		})
		if err != nil {
			return Result{}, err
		}
		merged := MemlocOut{Addr: make([]oracle.StreamCounts, len(ds)), Data: make([]oracle.StreamCounts, len(ds))}
		for i := range suite.kernels {
			for j := range ds {
				merged.Addr[j].Merge(perKernel[i].Addr[j])
				merged.Data[j].Merge(perKernel[i].Data[j])
			}
		}
		addrRow := []string{suite.label, "addresses"}
		dataRow := []string{suite.label, "data"}
		for j := range ds {
			addrRow = append(addrRow, stats.Pct(merged.Addr[j].Coverage()))
			dataRow = append(dataRow, stats.Pct(merged.Data[j].Coverage()))
		}
		tb.Rows = append(tb.Rows, addrRow, dataRow)
	}
	tb.AddNote("high address coverage is expected (spatial locality); substantial data coverage is the §6 claim")
	return Result{Name: "memloc", Tables: []stats.Table{tb}}, nil
}
