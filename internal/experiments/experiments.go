// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–§5), plus the sensitivity sweeps discussed in the text
// and the §6 extension studies. Each experiment runs the benchmark
// suites on the relevant register file organizations and renders the
// same rows/series the paper reports; DESIGN.md §4 maps experiment ids
// to paper exhibits, and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"context"
	"encoding/gob"
	"fmt"

	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/oracle"
	"carf/internal/pipeline"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/sched"
	"carf/internal/stats"
	"carf/internal/workload"
)

// StoreSchema versions the persisted encoding of cached run results
// for the on-disk tier (internal/store). Bump it whenever runOut's
// shape, the statistics it carries, or the simulation's observable
// behaviour changes — a stale blob under the old schema is then simply
// never found, rather than wrongly served.
const StoreSchema = "carf-run/v1"

func init() {
	// Every run kind's value crosses the store's any-envelope, so each
	// concrete type is registered for gob. Values hold only exported
	// fields, which round-trip exactly.
	gob.Register(runOut{})
	gob.Register([]oracle.Counts(nil))
	gob.Register(MemlocOut{})
	gob.Register(PhasesOut{})
	gob.Register(profile.CPIStack{})
	gob.Register(SMTOut{})
	gob.Register(harden.Outcome{})
}

// Options configures an experiment run.
type Options struct {
	// Ctx carries cancellation and deadlines into every simulation this
	// experiment schedules: queued runs abort before starting, running
	// sims poll it cooperatively, and joiners detach. nil means
	// context.Background() (never canceled).
	Ctx context.Context
	// Scale multiplies benchmark work (1.0 = the standard ~200–400k
	// dynamic instructions per kernel; experiments default to 0.25).
	Scale float64
	// Parallel bounds concurrent simulations. The bound applies to the
	// scheduler's *global* worker pool, which is shared by every
	// concurrently-executing experiment — it is not a per-experiment
	// limit. 0 leaves the pool at its current size (GOMAXPROCS unless
	// resized earlier).
	Parallel int
	// Sched routes this run's simulations through a specific scheduler
	// (nil = the process-global sched.Global()). Tests and benchmarks
	// use isolated schedulers to measure cold/warm/serial cache states.
	Sched *sched.Scheduler
	// Tally, when non-nil, accumulates this experiment's own scheduler
	// provenance (runs/hits/misses/joins), attributing shared-pool work
	// per experiment even when many run concurrently. Run installs one
	// automatically and reports it in Result.Sched.
	Tally *sched.Tally
	// Batch is ignored; every simulation runs through
	// pipeline.CPU.RunContext.
	//
	// Deprecated: the batch engine this selected is gone (it ran slower
	// than the scalar loop; DESIGN.md §13).
	Batch int
	// OnProgress, when non-nil, receives live progress frames from every
	// simulation this experiment actually executes (cache hits and joins
	// produce none — they do no work), stamped by the scheduler: Label
	// names the run the same way the telemetry run table does. The
	// callback must be safe for concurrent use: parallel simulations
	// report concurrently. Progress is strictly observational — it never
	// participates in run keys and never changes rendered output.
	OnProgress func(sched.Progress)
}

func (o Options) withDefaults() Options {
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Sched == nil {
		o.Sched = sched.Global()
	}
	if o.Parallel > 0 {
		o.Sched.SetWorkers(o.Parallel)
	}
	return o
}

// Result is one experiment's rendered output.
type Result struct {
	Name   string
	Tables []stats.Table

	// Sched is this experiment's own slice of scheduler activity: how
	// many simulations it requested and how they were served (simulated
	// / cache hit / joined an in-flight run). Unlike Scheduler.Stats,
	// which is process-wide, this is attributable per experiment even
	// under concurrent studies. Rendering does not include it.
	Sched sched.Stats
}

// Render formats all tables.
func (r Result) Render() string {
	out := ""
	for _, t := range r.Tables {
		out += t.Render() + "\n"
	}
	return out
}

type experiment struct {
	name string
	desc string
	run  func(Options) (Result, error)
}

var registry = []experiment{
	{"fig1", "Figure 1: distribution of live integer register values by frequency group", Fig1},
	{"fig2", "Figure 2: distribution of (64-d)-similar live values, d = 8/12/16", Fig2},
	{"fig5", "Figure 5: relative IPC vs d+n (8 short, 48 long registers)", Fig5},
	{"fig6", "Figure 6: register file read/write access distribution by value type vs d+n", Fig6},
	{"fig7", "Figure 7: register file energy vs d+n, relative to the unlimited file", Fig7},
	{"fig8", "Figure 8: register file area relative to the unlimited file", Fig8},
	{"fig9", "Figure 9: register file access time relative to the unlimited file", Fig9},
	{"table2", "Table 2: percentage of bypassed operands", Table2},
	{"table3", "Table 3: single-access energy per sub-file, normalized to unlimited", Table3},
	{"table4", "Table 4: source-operand type distribution (d+n = 20)", Table4},
	{"sweeps", "§4 sensitivity: short/long file sizes, live-long occupancy, pseudo-deadlock", Sweeps},
	{"ext", "§6 extensions: CAM short file, SMT sharing, clustering affinity, reclamation/bypass ablations", Extensions},
	{"memloc", "§6 memory direction: partial value locality in addresses and data traffic", Memloc},
	{"wrongpath", "fidelity ablation: speculative wrong-path execution vs fetch stall", WrongPath},
	{"cluster", "§6 clustering: value-type-steered half-width clusters vs unified", Cluster},
	{"kernels", "per-kernel transparency: IPC on all organizations, mispredicts, write mix", Kernels},
	{"phases", "phase variance: interval IPC and sub-file occupancy time series per kernel", Phases},
	{"calibration", "energy-model robustness: conclusions across technology constants", Calibration},
	{"faults", "hardening: fault-injection detection coverage and latency per fault class", Faults},
	{"cpistack", "attribution: CPI-stack slot accounting per organization, baseline->carf delta decomposition", CPIStackStudy},
}

// Names lists experiment ids in paper order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(name string) string {
	for _, e := range registry {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// Run executes one experiment by id. Each call gets its own provenance
// tally (unless the caller supplies one), reported in Result.Sched.
func Run(name string, opt Options) (Result, error) {
	for _, e := range registry {
		if e.name == name {
			opt = opt.withDefaults()
			if opt.Tally == nil {
				opt.Tally = new(sched.Tally)
			}
			r, err := e.run(opt)
			r.Sched = opt.Tally.Stats()
			return r, err
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, Names())
}

// RunAll executes every experiment in paper order.
func RunAll(opt Options) ([]Result, error) {
	var out []Result
	for _, e := range registry {
		r, err := Run(e.name, opt)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// modelSpec builds a fresh register file model per simulation (models
// are stateful and single-run). The id is the spec's contribution to
// the scheduler's memoization key: two specs with equal ids must build
// behaviourally identical models.
type modelSpec struct {
	id  string
	new func() regfile.Model
}

func baselineSpec() modelSpec {
	return modelSpec{"baseline", func() regfile.Model { return regfile.Baseline() }}
}

func unlimitedSpec() modelSpec {
	return modelSpec{"unlimited", func() regfile.Model { return regfile.Unlimited() }}
}

func carfSpec(p core.Params) modelSpec {
	return modelSpec{fmt.Sprintf("carf%+v", p), func() regfile.Model { return core.New(p) }}
}

// runOut is one simulation's harvest. Cached runOuts are shared across
// experiments: everything reachable from one (Pstats, Files, Carf) is
// an immutable snapshot and must only be read. Fields are exported
// because runOut is also the unit of persistence — the disk tier
// gob-encodes it, and unexported fields would be silently dropped.
// Kernel is the kernel's *name*, not the workload.Kernel itself:
// vm.Program carries unexported derived state that gob cannot carry,
// and the scheduler key already pins the exact program content.
type runOut struct {
	Kernel string
	Pstats pipeline.Stats
	Files  []regfile.FileActivity
	Carf   *core.Stats
}

// runKey digests everything a plain simulation's result depends on.
// kind separates request families that run different harnesses on the
// same inputs (plain sim, oracle-sampled, profiled, ...); extras carry
// family-specific knobs (sampler periods, fault descriptors).
func runKey(kind string, opt Options, kernel string, specID string, cfg pipeline.Config, extra ...any) sched.Key {
	parts := append([]any{kind, kernel, opt.Scale, specID, cfg}, extra...)
	return sched.KeyOf(parts...)
}

// simulate builds kernel r and runs it on a fresh model of spec,
// optionally with a live-value sampler attached (every
// oracleSamplePeriod cycles), and with fresh models of follow riding
// along (pipeline.CPU.Follow): followed[i] is follow[i]'s result, or
// nil when that model left the leader's timing and must be simulated
// alone. It is the body of plain and oracle runs; callers go through
// do, so the run is pooled and memoized, and a run served from a cache
// never builds the kernel.
func simulate(opt Options, r *workload.Ref, spec modelSpec, cfg pipeline.Config, sampler pipeline.LiveSampler, report sched.ProgressFunc, follow ...modelSpec) (out runOut, followed []*runOut, err error) {
	k, err := r.Build()
	if err != nil {
		return runOut{}, nil, err
	}
	model := spec.new()
	cpu := pipeline.New(cfg, k.Prog, model)
	followers := make([]regfile.Model, len(follow))
	for i, s := range follow {
		followers[i] = s.new()
	}
	if len(followers) > 0 && cpu.Follow(followers...) != nil {
		followers = nil // refused: every follower simulates alone
	}
	obs := pipeline.Observe{Live: sampler, LivePeriod: oracleSamplePeriod, Frame: frames(report, opt.Scale, k)}
	st, err := cpu.RunContext(opt.Ctx, obs)
	if err != nil {
		return runOut{}, nil, fmt.Errorf("%s on %s: %w", k.Name, model.Name(), err)
	}
	if st.ValueMismatches != 0 {
		return runOut{}, nil, fmt.Errorf("%s on %s: %d register reconstruction mismatches",
			k.Name, model.Name(), st.ValueMismatches)
	}
	if err := k.CheckResult(cpu.Machine()); err != nil {
		return runOut{}, nil, fmt.Errorf("%w (on %s)", err, model.Name())
	}
	followed = make([]*runOut, len(follow))
	for i, m := range followers {
		if fst, ok := cpu.Follower(i); ok {
			o := harvest(k.Name, m, fst)
			followed[i] = &o
		}
	}
	return harvest(k.Name, model, st), followed, nil
}

// harvest collects a finished run of kernel on model.
func harvest(kernel string, model regfile.Model, st pipeline.Stats) runOut {
	out := runOut{Kernel: kernel, Pstats: st, Files: model.Files()}
	if f, ok := model.(*core.File); ok {
		cs := f.Stats()
		out.Carf = &cs
	}
	return out
}

// frames returns the Observe.Frame that forwards a run of kernels ks to
// report, or nil when nobody watches. The instruction budget for ETA
// math comes from (memoized) functional pre-runs, a cost paid only
// when someone watches.
func frames(report sched.ProgressFunc, scale float64, ks ...workload.Kernel) func(pipeline.Progress) {
	if report == nil {
		return nil
	}
	var target uint64
	for _, k := range ks {
		target += workload.Budget(k, scale)
	}
	return func(pp pipeline.Progress) { report(ToSchedProgress(pp, target)) }
}

// runOne simulates kernel k on a fresh model through the scheduler.
func runOne(k *workload.Ref, spec modelSpec, opt Options) (runOut, error) {
	outs, err := runSuite([]*workload.Ref{k}, spec, opt)
	if err != nil {
		return runOut{}, err
	}
	return outs[0], nil
}

// ToSchedProgress converts the simulator's progress snapshot, with the
// run's known instruction budget (0 = unknown), to the one progress
// value above the simulator; Progress.Stamp fills the rest. It is the
// only such conversion: carf's RunCtxProgress uses it too.
func ToSchedProgress(p pipeline.Progress, target uint64) sched.Progress {
	return sched.Progress{
		Cycles:         p.Cycles,
		Insts:          p.Instructions,
		IntervalCycles: p.IntervalCycles,
		IntervalInsts:  p.IntervalInstructions,
		IntervalIPC:    p.IntervalIPC,
		ROB:            p.ROB,
		IntIQ:          p.IntIQ,
		FPIQ:           p.FPIQ,
		LSQ:            p.LSQ,
		ArrayWrites:    p.ArrayWrites,
		WritesByType:   p.WritesByType,
		Final:          p.Final,
		Target:         target,
	}
}

// runLabel renders the human-readable run description carried to the
// telemetry plane (span names, /runs rows, log lines). Labels are
// display-only: the content Key remains the scheduling identity.
func runLabel(kind, kernel, specID string) string {
	return kind + "/" + kernel + "/" + specID
}

// runKernel simulates kernel k on fresh models of each of specs under
// cfg through the scheduler and stores spec s's result in outs[s][i],
// each memoized by (kernel, scale, spec, config). It requests the
// specs' runs in turn. The first request that misses simulates specs[0]
// — even when its own run was served from a cache — with every spec
// from the missing one on following along (simulate), and a later
// request that misses is served what its follower measured; a spec
// whose follower left the leader's timing simulates alone. So specs
// that share a kernel's timing cost one pipeline run when listed
// together, and specs[0] should be the one the others diverge from
// least.
func runKernel(k *workload.Ref, specs []modelSpec, cfg pipeline.Config, opt Options, outs [][]runOut, i int) error {
	led := false
	var followed map[string]runOut // follower results by spec id
	for s, spec := range specs {
		var err error
		outs[s][i], err = do(opt, runKey("sim", opt, k.Name, spec.id, cfg), runLabel("sim", k.Name, spec.id),
			func(report sched.ProgressFunc) (runOut, error) {
				if !led {
					led = true
					out, fouts, err := lead(opt, k, specs[0], specs[s:], cfg, report)
					followed = fouts
					if spec.id == specs[0].id || err != nil {
						return out, err
					}
				}
				if out, ok := followed[spec.id]; ok {
					return out, nil
				}
				out, _, err := simulate(opt, k, spec, cfg, nil, report)
				return out, err
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// lead simulates kernel k on leader with every spec of rest whose id
// differs from the leader's and from the earlier ones' following. It
// returns the leader's result and, by spec id, the results of the
// followers that stayed in step.
func lead(opt Options, k *workload.Ref, leader modelSpec, rest []modelSpec, cfg pipeline.Config, report sched.ProgressFunc) (runOut, map[string]runOut, error) {
	var follow []modelSpec
	seen := map[string]bool{leader.id: true}
	for _, s := range rest {
		if !seen[s.id] {
			seen[s.id] = true
			follow = append(follow, s)
		}
	}
	out, fouts, err := simulate(opt, k, leader, cfg, nil, report, follow...)
	followed := map[string]runOut{}
	for j, o := range fouts {
		if o != nil {
			followed[follow[j].id] = *o
		}
	}
	return out, followed, err
}

// do is the one path every run kind takes: body runs through
// opt.Sched.DoProgress, pooled, deduplicated, memoized, persisted,
// cancelled by opt.Ctx and counted in opt.Tally, and receives the
// run's progress reporter. T must be registered for gob (init).
func do[T any](opt Options, key sched.Key, label string, body func(report sched.ProgressFunc) (T, error)) (T, error) {
	v, prov, err := opt.Sched.DoProgress(opt.Ctx, key, label, true, opt.OnProgress,
		func(report sched.ProgressFunc) (any, error) { return body(report) })
	opt.Tally.Record(prov, err)
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// runSuite simulates every kernel of a suite on fresh models through
// the scheduler, returning results in suite order.
func runSuite(kernels []*workload.Ref, spec modelSpec, opt Options) ([]runOut, error) {
	outs, err := runSuiteCfg(kernels, []modelSpec{spec}, pipeline.DefaultConfig(), opt)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// runSuiteCfg simulates every kernel of a suite on each of specs under
// cfg, the kernels in parallel and each kernel's specs in turn
// (runKernel): outs[s][i] is spec s on kernel i.
func runSuiteCfg(kernels []*workload.Ref, specs []modelSpec, cfg pipeline.Config, opt Options) ([][]runOut, error) {
	outs := make([][]runOut, len(specs))
	for s := range outs {
		outs[s] = make([]runOut, len(kernels))
	}
	err := sched.ForEach(len(kernels), func(i int) error {
		return runKernel(kernels[i], specs, cfg, opt, outs, i)
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// runParams simulates every kernel on the content-aware file under each
// of ps as one list (runSuiteCfg), returning outs[j][i] for ps[j] on
// kernel i. The default parameters lead: the variants the paper sweeps
// stay in step with the default far more often than with each other.
func runParams(kernels []*workload.Ref, ps []core.Params, opt Options) ([][]runOut, error) {
	def := core.DefaultParams()
	var order []int // indices into ps, the default first
	for j, p := range ps {
		if p == def {
			order = append(order, j)
		}
	}
	for j, p := range ps {
		if p != def {
			order = append(order, j)
		}
	}
	specs := make([]modelSpec, len(order))
	for n, j := range order {
		specs[n] = carfSpec(ps[j])
	}
	outs, err := runSuiteCfg(kernels, specs, pipeline.DefaultConfig(), opt)
	if err != nil {
		return nil, err
	}
	byParams := make([][]runOut, len(ps))
	for n, j := range order {
		byParams[j] = outs[n]
	}
	return byParams, nil
}

// meanRelIPC returns mean(IPC_a / IPC_b) across paired runs.
func meanRelIPC(a, b []runOut) float64 {
	ratios := make([]float64, len(a))
	for i := range a {
		ratios[i] = a[i].Pstats.IPC() / b[i].Pstats.IPC()
	}
	return stats.Mean(ratios)
}

// dnSweep is the d+n design space of Figures 5–7 and Table 3.
var dnSweep = []int{8, 12, 16, 20, 24, 28, 32}

// dnParams returns the default parameters at each d+n of dnSweep.
func dnParams() []core.Params {
	ps := make([]core.Params, len(dnSweep))
	for i, dn := range dnSweep {
		ps[i] = core.DefaultParams()
		ps[i].DPlusN = dn
	}
	return ps
}
