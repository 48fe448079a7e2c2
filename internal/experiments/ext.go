package experiments

import (
	"fmt"

	"carf/internal/core"
	"carf/internal/energy"
	"carf/internal/pipeline"
	"carf/internal/stats"
	"carf/internal/workload"
)

// Extensions covers the §4 CAM alternative and two §6 directions: the
// value-type clustering affinity implied by Table 4, and SMT sharing of
// one content-aware file by two threads.
func Extensions(opt Options) (Result, error) {
	variants, err := runParams(workload.IntSuite(opt.Scale), variantParams(), opt)
	if err != nil {
		return Result{}, err
	}
	cam, err := camStudy(opt, variants[0], variants[len(shortPolicies)])
	if err != nil {
		return Result{}, err
	}
	cluster, err := clusterStudy(opt)
	if err != nil {
		return Result{}, err
	}
	smt, err := smtStudy(opt)
	if err != nil {
		return Result{}, err
	}
	policy, err := policyStudy(opt, variants[:len(shortPolicies)])
	if err != nil {
		return Result{}, err
	}
	smtPol, err := smtPolicyStudy(opt)
	if err != nil {
		return Result{}, err
	}
	bypass, err := bypassStudy(opt)
	if err != nil {
		return Result{}, err
	}
	return Result{Name: "ext", Tables: []stats.Table{cam, cluster, smt, smtPol, policy, bypass}}, nil
}

// shortPolicies are the Short reclamation policies policyStudy
// compares, the paper's first.
var shortPolicies = []core.ShortFreePolicy{core.FreeRefBits, core.FreeRefCount, core.FreeNever}

// variantParams returns the default parameters under each of
// shortPolicies, then with the CAM Short file: the reclamation and CAM
// ablations as one list, so a kernel's default run (refbits,
// direct-indexed) leads every variant that shares its timing.
func variantParams() []core.Params {
	var ps []core.Params
	for _, pol := range shortPolicies {
		p := core.DefaultParams()
		p.ShortFree = pol
		ps = append(ps, p)
	}
	p := core.DefaultParams()
	p.CAMShort = true
	return append(ps, p)
}

// policyStudy bounds the paper's Tcur/Tarch/Told reference-bit Short
// reclamation (§3.2) between an idealized per-entry reference counter
// (exact liveness, rejected as too complex) and never freeing at all;
// policyOuts[i] is the INT suite under shortPolicies[i].
func policyStudy(opt Options, policyOuts [][]runOut) (stats.Table, error) {
	ints := workload.IntSuite(opt.Scale)
	base, err := runSuite(ints, baselineSpec(), opt)
	if err != nil {
		return stats.Table{}, err
	}
	tb := stats.Table{
		Title:  "Short-file reclamation policy ablation (INT suite)",
		Header: []string{"policy", "IPC vs baseline", "short read share", "short frees", "install fails"},
	}
	for i, pol := range shortPolicies {
		outs := policyOuts[i]
		var reads [3]uint64
		var frees, fails uint64
		for _, o := range outs {
			for t := 0; t < 3; t++ {
				reads[t] += o.Carf.ReadsByType[t]
			}
			frees += o.Carf.ShortFrees
			fails += o.Carf.ShortInstallFails
		}
		total := reads[0] + reads[1] + reads[2]
		shortShare := 0.0
		if total > 0 {
			shortShare = float64(reads[1]) / float64(total)
		}
		tb.AddRow(pol.String(), stats.Pct(meanRelIPC(outs, base)),
			stats.Pct(shortShare), fmt.Sprintf("%d", frees), fmt.Sprintf("%d", fails))
	}
	tb.AddNote("the paper's refbits scheme should track the idealized refcount closely; never-free loses short coverage over time")
	return tb, nil
}

// bypassStudy removes the content-aware pipeline's extra bypass level
// (WR2 coverage): the paper predicts little performance impact because
// the extra level is used rarely, but more register file reads.
func bypassStudy(opt Options) (stats.Table, error) {
	ints := workload.IntSuite(opt.Scale)
	base, err := runSuite(ints, baselineSpec(), opt)
	if err != nil {
		return stats.Table{}, err
	}
	tb := stats.Table{
		Title:  "Extra bypass level ablation (content-aware, INT suite)",
		Header: []string{"bypass levels", "IPC vs baseline", "bypassed operands"},
	}
	for _, levels := range []int{2, 1} {
		cfg := pipeline.DefaultConfig()
		cfg.BypassDepth = levels
		cfgOuts, err := runSuiteCfg(ints, []modelSpec{carfSpec(core.DefaultParams())}, cfg, opt)
		if err != nil {
			return stats.Table{}, err
		}
		outs := cfgOuts[0]
		tb.AddRow(fmt.Sprintf("%d", levels),
			stats.Pct(meanRelIPC(outs, base)), stats.Pct(suiteBypass(outs)))
	}
	tb.AddNote("paper: the additional bypass does not have to be implemented if too expensive; it is not used very frequently")
	return tb, nil
}

// camStudy compares the direct-indexed Short file against the
// fully-associative (CAM) alternative, given the INT suite on each: a
// small IPC gain for a large per-access energy increase (§4's reason to
// reject it).
func camStudy(opt Options, direct, cam []runOut) (stats.Table, error) {
	base, err := runSuite(workload.IntSuite(opt.Scale), baselineSpec(), opt)
	if err != nil {
		return stats.Table{}, err
	}

	tech := energy.DefaultTech()
	shortEnergy := func(outs []runOut) float64 {
		var e float64
		for _, o := range outs {
			for _, f := range tech.Organization(o.Files).Files {
				if f.Spec.Name == "short" {
					e += f.TotalEnergy
				}
			}
		}
		return e
	}
	tb := stats.Table{
		Title:  "CAM vs direct-indexed Short file (INT suite)",
		Header: []string{"variant", "IPC vs baseline", "short-file energy (rel direct)"},
	}
	de := shortEnergy(direct)
	tb.AddRow("direct-indexed", stats.Pct(meanRelIPC(direct, base)), stats.Pct(1))
	tb.AddRow("fully associative (CAM)", stats.Pct(meanRelIPC(cam, base)), stats.Pct(shortEnergy(cam)/de))
	tb.AddNote("paper: the CAM brings a very small IPC gain at a high energy cost")
	return tb, nil
}

// clusterStudy quantifies the §6 clustering observation: the fraction of
// integer operations whose source operands share one value type — the
// instructions a type-partitioned clustered machine could steer without
// inter-cluster communication.
func clusterStudy(opt Options) (stats.Table, error) {
	outs, err := runSuite(workload.IntSuite(opt.Scale), carfSpec(core.DefaultParams()), opt)
	if err != nil {
		return stats.Table{}, err
	}
	var same, cross, total uint64
	for _, o := range outs {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				n := o.Pstats.OperandCombos[i][j]
				total += n
				if i == j {
					same += n
				} else {
					cross += n
				}
			}
		}
	}
	tb := stats.Table{
		Title:  "Value-type clustering affinity (§6, from Table 4 data)",
		Header: []string{"operand mix", "share"},
	}
	if total > 0 {
		tb.AddRow("same-type sources (no inter-cluster traffic)", stats.Pct(float64(same)/float64(total)))
		tb.AddRow("mixed-type sources (inter-cluster traffic)", stats.Pct(float64(cross)/float64(total)))
	}
	tb.AddNote("paper: over 86%% of integer operations use same-type sources")
	return tb, nil
}

// smtStudy runs two threads sharing one content-aware file (§6): the
// long file's peak demand grows slowly, so 48 long registers feed both
// threads with modest loss relative to doubling everything.
func smtStudy(opt Options) (stats.Table, error) {
	tb := stats.Table{
		Title:  "SMT: two threads sharing one content-aware integer file (§6)",
		Header: []string{"pair", "combined IPC", "vs solo sum", "avg live long", "recovery stalls"},
	}
	pairs := [][2]string{
		{"qsort", "crc64"},
		{"listchase", "histo"},
		{"hashprobe", "strsearch"},
	}
	for _, pair := range pairs {
		row, err := smtPair(pair[0], pair[1], opt)
		if err != nil {
			return stats.Table{}, err
		}
		tb.Rows = append(tb.Rows, row)
	}
	tb.AddNote("long-file pressure rises with two threads, yet 48 entries still suffice (paper: avg live long ~12.7 per thread)")
	return tb, nil
}
