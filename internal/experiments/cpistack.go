package experiments

import (
	"fmt"

	"carf/internal/core"
	"carf/internal/pipeline"
	"carf/internal/profile"
	"carf/internal/sched"
	"carf/internal/stats"
	"carf/internal/workload"
)

// cpiKernels are the kernels the CPI-stack study decomposes: two
// memory-bound pointer chasers, one long-value-heavy bit mixer, and one
// branchy sorter — together they light up every blame category.
var cpiKernels = []string{"hashprobe", "listchase", "crc64", "qsort"}

// cpiOrg is one (organization, profiler) pair of the study.
type cpiOrg struct {
	label string
	spec  modelSpec
}

// pressuredParams shrinks the Long file so its pressure categories
// (rf-long, rf-spill) become visible at experiment scale.
func pressuredParams() core.Params {
	p := core.DefaultParams()
	p.NumLong = 8
	return p
}

// CPIStackStudy decomposes where the cycles go under slot accounting:
// every commit-slot deficit of every cycle is charged to exactly one
// blame category, so the categories sum to cycles × commit width and
// the per-category CPI contributions sum to the measured CPI. The first
// table shows each organization's stack per kernel; the second
// attributes the baseline → content-aware CPI delta to register-file,
// branch, memory, and residual components.
func CPIStackStudy(opt Options) (Result, error) {
	orgs := []cpiOrg{
		{"baseline", baselineSpec()},
		{"carf", carfSpec(core.DefaultParams())},
		{"carf-8long", carfSpec(pressuredParams())},
	}

	// One run per (kernel, org) cell; a profiled run carries a different
	// instrumentation cost than a plain one, so "cpistack" runs get their
	// own key kind and never alias the registry's plain runs. The
	// slot-identity check happens inside the run.
	cfg := pipeline.DefaultConfig()
	refs := make([]*workload.Ref, len(cpiKernels))
	for i, name := range cpiKernels {
		r, err := workload.Lookup(name, opt.Scale)
		if err != nil {
			return Result{}, err
		}
		refs[i] = r
	}
	cells := make([]profile.CPIStack, len(cpiKernels)*len(orgs))
	err := sched.ForEach(len(cells), func(idx int) error {
		r := refs[idx/len(orgs)]
		name := r.Name
		org := orgs[idx%len(orgs)]
		key := runKey("cpistack", opt, name, org.spec.id, cfg, "profiled")
		var err error
		cells[idx], err = do(opt, key, runLabel("cpistack", name, org.spec.id), func(report sched.ProgressFunc) (profile.CPIStack, error) {
			k, err := r.Build()
			if err != nil {
				return profile.CPIStack{}, err
			}
			cpu := pipeline.New(cfg, k.Prog, org.spec.new())
			prof := new(profile.Profiler)
			if _, err := cpu.RunContext(opt.Ctx, pipeline.Observe{Profile: prof, Frame: frames(report, opt.Scale, k)}); err != nil {
				return profile.CPIStack{}, fmt.Errorf("%s on %s: %w", name, org.label, err)
			}
			if err := k.CheckResult(cpu.Machine()); err != nil {
				return profile.CPIStack{}, fmt.Errorf("%w (on %s)", err, org.label)
			}
			if err := prof.Stack.CheckIdentity(); err != nil {
				return profile.CPIStack{}, fmt.Errorf("%s on %s: %w", name, org.label, err)
			}
			return prof.Stack, nil
		})
		return err
	})
	if err != nil {
		return Result{}, err
	}

	// stacks[kernel][org]
	stacks := make([][]*profile.CPIStack, len(cpiKernels))
	shareT := stats.Table{
		Title:  "CPI stack: slot shares per blame category (conservative: rows sum to 100%)",
		Header: append([]string{"kernel", "org", "CPI"}, categoryLabels()...),
	}
	for i, name := range cpiKernels {
		stacks[i] = make([]*profile.CPIStack, len(orgs))
		for j, org := range orgs {
			st := &cells[i*len(orgs)+j]
			stacks[i][j] = st

			row := []string{name, org.label, stats.F3(st.CPI())}
			for _, c := range profile.Categories() {
				row = append(row, stats.Pct(st.Share(c)))
			}
			shareT.Rows = append(shareT.Rows, row)
		}
	}
	shareT.AddNote("commit is the useful-slot share; carf-8long shrinks the Long file to 8 entries to expose register-file pressure")

	deltaT := stats.Table{
		Title: "Baseline -> content-aware CPI delta, attributed per component",
		Header: []string{"kernel", "org", "CPI base", "CPI carf", "dCPI",
			"d rf", "d branch", "d mem", "d other"},
	}
	for i, name := range cpiKernels {
		base := stacks[i][0]
		for j := 1; j < len(orgs); j++ {
			carf := stacks[i][j]
			rf := func(s *profile.CPIStack) float64 {
				return s.Component(profile.CatRFLong) + s.Component(profile.CatRFSpill) +
					s.Component(profile.CatRFFree)
			}
			branch := func(s *profile.CPIStack) float64 { return s.Component(profile.CatBranch) }
			mem := func(s *profile.CPIStack) float64 {
				return s.Component(profile.CatL2) + s.Component(profile.CatMem)
			}
			dCPI := carf.CPI() - base.CPI()
			dRF := rf(carf) - rf(base)
			dBr := branch(carf) - branch(base)
			dMem := mem(carf) - mem(base)
			deltaT.AddRow(name, orgs[j].label,
				stats.F3(base.CPI()), stats.F3(carf.CPI()),
				fmt.Sprintf("%+.3f", dCPI),
				fmt.Sprintf("%+.3f", dRF),
				fmt.Sprintf("%+.3f", dBr),
				fmt.Sprintf("%+.3f", dMem),
				fmt.Sprintf("%+.3f", dCPI-dRF-dBr-dMem))
		}
	}
	deltaT.AddNote("components are additive slot-accounting CPI contributions; d other = dCPI - d rf - d branch - d mem")
	return Result{Name: "cpistack", Tables: []stats.Table{shareT, deltaT}}, nil
}

func categoryLabels() []string {
	out := make([]string, 0, profile.NumCategories)
	for _, c := range profile.Categories() {
		out = append(out, c.String())
	}
	return out
}
