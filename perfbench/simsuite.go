package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"carf/internal/core"
	"carf/internal/pipeline"
	"carf/internal/regfile"
	"carf/internal/workload"
)

const (
	// suiteScale sizes sim-suite's kernels: 20–40k committed instructions
	// each, so one pass of 44 simulations takes about 0.6 s and a 25 s
	// window gives over a thousand per-simulation samples.
	suiteScale = 0.1
	// chunkCycles is the RunChunk budget; chunking changes no statistic.
	chunkCycles = 1 << 15
)

// simResult is one simulation's outputs and host cost.
type simResult struct {
	kernel  string
	carf    bool
	stats   pipeline.Stats
	wall    time.Duration // construction through Finalize
	l1dMiss uint64
	l1dAcc  uint64
	l2Miss  uint64
	l2Acc   uint64
	digest  string
	model   modelClock // traced runs only
}

func (s simResult) org() string {
	if s.carf {
		return "carf"
	}
	return "baseline"
}

func (s simResult) nsPerInst() float64 {
	return float64(s.wall.Nanoseconds()) / float64(s.stats.Instructions)
}

// buildKernels builds every kernel at scale, in suite order.
func buildKernels(tr *tracer, group string, scale float64) ([]workload.Kernel, error) {
	var ks []workload.Kernel
	for _, name := range workload.Names() {
		id, t0 := tr.id(), time.Now()
		k, err := workload.ByName(name, scale)
		tr.record(id, 0, group, "workload.ByName", t0, nil)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// simulate runs kernel k on a fresh content-aware file (carf) or baseline
// file through pipeline.New, RunChunk and Finalize, and checks its
// outputs: the kernel's checksum, zero value mismatches, zero model
// faults (Finalize reports them) and the statistics digest. With a
// tracer, the model is wrapped to time its calls and each pipeline call
// is a span.
func simulate(tr *tracer, group string, k workload.Kernel, carf bool) (simResult, error) {
	res := simResult{kernel: k.Name, carf: carf}
	root, t0 := tr.id(), time.Now()
	var model regfile.Model
	var file *core.File
	if carf {
		file = core.New(core.DefaultParams())
		model = file
		if tr != nil {
			model = timedCarf{file, &res.model}
		}
	} else {
		conv := regfile.Baseline()
		model = conv
		if tr != nil {
			model = timedConv{conv, &res.model}
		}
	}
	id, tn := tr.id(), time.Now()
	cpu := pipeline.New(pipeline.DefaultConfig(), k.Prog, model)
	tr.record(id, root, group, "pipeline.New", tn, nil)
	for done := false; !done; {
		id, tc := tr.id(), time.Now()
		ns0, calls0 := res.model.ns, res.model.calls
		var err error
		done, err = cpu.RunChunk(chunkCycles)
		if tr != nil {
			tr.record(id, root, group, "pipeline.RunChunk", tc, map[string]float64{
				"model_ns":    float64(res.model.ns - ns0),
				"model_calls": float64(res.model.calls - calls0),
			})
		}
		if err != nil {
			return res, fmt.Errorf("%s/%s: %w", k.Name, res.org(), err)
		}
	}
	id, tf := tr.id(), time.Now()
	st, err := cpu.Finalize()
	tr.record(id, root, group, "pipeline.Finalize", tf, nil)
	res.wall = time.Since(t0)
	tr.record(root, 0, group, "sim."+res.org(), t0, nil)
	res.stats = st
	h := cpu.Hierarchy()
	res.l1dMiss, res.l1dAcc = h.L1D.Stats().Misses, h.L1D.Stats().Accesses
	res.l2Miss, res.l2Acc = h.L2.Stats().Misses, h.L2.Stats().Accesses
	if err != nil {
		return res, fmt.Errorf("%s/%s: %w", k.Name, res.org(), err)
	}
	if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
		return res, fmt.Errorf("%s/%s: checksum %#x, want %#x", k.Name, res.org(), got, k.Expected)
	}
	if st.ValueMismatches != 0 {
		return res, fmt.Errorf("%s/%s: %d value mismatches", k.Name, res.org(), st.ValueMismatches)
	}
	detail := fmt.Sprintf("%+v", st)
	if file != nil {
		detail += fmt.Sprintf("|%+v", file.Stats())
	}
	res.digest = digest(detail)
	return res, nil
}

// digest is a short content hash of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// suitePass simulates every kernel on both organizations, back to back,
// in a kernel order and pair order drawn from the run's seeded RNG. It
// returns the results in pairs (baseline, carf) and the first error.
// Both halves of a pair must commit the same number of instructions.
func (r *run) suitePass(kernels []workload.Kernel, tr *tracer, group string) ([][2]simResult, []error, error) {
	pairs := make([][2]simResult, 0, len(kernels))
	var errs []error
	for _, i := range r.rng.Perm(len(kernels)) {
		carfFirst := r.rng.Intn(2) == 1
		var pair [2]simResult
		for j, carf := range [2]bool{carfFirst, !carfFirst} {
			res, err := simulate(tr, group, kernels[i], carf)
			if err == nil && res.digest != expected.Sim[res.kernel+"/"+res.org()] {
				err = fmt.Errorf("%s/%s: stats digest %s, want %s", res.kernel, res.org(), res.digest, expected.Sim[res.kernel+"/"+res.org()])
			}
			errs = append(errs, err)
			pair[j] = res
		}
		if pair[0].carf {
			pair[0], pair[1] = pair[1], pair[0]
		}
		if pair[0].stats.Instructions != pair[1].stats.Instructions {
			return nil, errs, fmt.Errorf("%w: %s committed %d instructions on baseline, %d on carf",
				errGate, kernels[i].Name, pair[0].stats.Instructions, pair[1].stats.Instructions)
		}
		pairs = append(pairs, pair)
	}
	return pairs, errs, nil
}

// ipcRelCarf is the suite mean of per-kernel content-aware IPC over
// baseline IPC.
func ipcRelCarf(pairs [][2]simResult) float64 {
	var s float64
	for _, p := range pairs {
		s += p[1].stats.IPC() / p[0].stats.IPC()
	}
	return s / float64(len(pairs))
}

// suiteAcc gathers, over suite passes, what sim-suite's end-to-end
// metrics and the pipeline, core, regfile, cache and predictor layer
// metrics are computed from.
type suiteAcc struct {
	wall     [2]time.Duration // index 0: untraced passes, 1: traced
	insts    [2]uint64
	overhead []float64 // per pair of an untraced pass: carf over baseline host ns/inst
	traced   [][2]simResult
	passes   int // traced
	last     [][2]simResult
}

// suiteStep runs suite pass i into acc and returns the host ns/inst of
// each simulation of an untraced pass. In a traced run odd passes are
// traced, so trace.overhead compares passes from the same stretch of
// time.
func (r *run) suiteStep(kernels []workload.Kernel, i int, acc *suiteAcc) ([]float64, error) {
	var tr *tracer
	t := 0
	if r.traced && i%2 == 1 {
		tr, t = r.spans, 1
	}
	t0 := time.Now()
	pairs, errs, err := r.suitePass(kernels, tr, fmt.Sprintf("suite%d", i))
	wall := time.Since(t0)
	for _, err := range errs {
		r.check(err)
	}
	if err != nil {
		return nil, err
	}
	acc.wall[t] += wall
	var samples []float64
	for _, p := range pairs {
		acc.insts[t] += p[0].stats.Instructions + p[1].stats.Instructions
		if tr == nil {
			acc.overhead = append(acc.overhead, p[1].nsPerInst()/p[0].nsPerInst())
			samples = append(samples, p[0].nsPerInst(), p[1].nsPerInst())
		}
	}
	if tr != nil {
		acc.traced = append(acc.traced, pairs...)
		acc.passes++
	}
	acc.last = pairs
	return samples, nil
}

// simSuite is the simulator-core workload: one goroutine simulates all
// 22 kernels on the baseline and the content-aware file, paired. The
// scheduler, store and experiments do no work.
func simSuite(r *run) error {
	r.provenance()
	r.note("scale", fmt.Sprint(suiteScale))
	var kernels []workload.Kernel
	setupS, err := r.setupTimes(func() error {
		ks, err := buildKernels(r.spans, "setup", suiteScale)
		if err != nil {
			return err
		}
		kernels = ks
		_, errs, err := r.suitePass(kernels, nil, "warmup")
		if err != nil {
			return err
		}
		return firstErr(errs)
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	e := endToEnd{setupS: setupS}
	acc := &suiteAcc{}
	gc0, alloc0 := readGC(), heapAllocBytes()
	w, err := r.timed(func(i int) ([]float64, error) {
		e.resultsServed += 2 * len(kernels)
		return r.suiteStep(kernels, i, acc)
	})
	if err != nil {
		return err
	}
	e.allocBytes = heapAllocBytes() - alloc0
	gc := readGC().sub(gc0)
	e.window, e.insts = w, acc.insts[0]+acc.insts[1]
	e.ipcRelCarf = ipcRelCarf(acc.last)
	if !r.traced {
		r.reportEndToEnd(e)
		return nil
	}
	return r.reportLayers(&layerInputs{
		passes:   len(w.raw),
		gc:       gc,
		overhead: throughput(acc.insts[0], acc.wall[0]) / throughput(acc.insts[1], acc.wall[1]),
		kernels:  kernels,
		suite:    acc,
	})
}

// suiteLayers derives the simulator-core layer metrics from the traced
// suite passes' spans and results.
func suiteLayers(l map[string]float64, acc *suiteAcc, tr *tracer) {
	var newUs []float64
	for _, s := range tr.named("pipeline.New", nil) {
		newUs = append(newUs, float64(s.dur().Nanoseconds())/1e3)
	}
	l["pipeline.new_us"] = quantile(newUs, 0.5)

	var chunkNs, modelNs float64
	for _, s := range tr.named("pipeline.RunChunk", nil) {
		chunkNs += float64(s.dur().Nanoseconds())
		modelNs += s.Attrs["model_ns"]
	}
	var cycles, insts, stalls, branches, mispred, l1dM, l1dA, l2M, l2A uint64
	var carfModel, carfWall, convModel, convWall time.Duration
	var carfCalls, carfInsts uint64
	for _, p := range acc.traced {
		for _, s := range p {
			cycles += s.stats.Cycles
			insts += s.stats.Instructions
			branches += s.stats.Branches
			mispred += s.stats.Mispredicts
			l1dM, l1dA, l2M, l2A = l1dM+s.l1dMiss, l1dA+s.l1dAcc, l2M+s.l2Miss, l2A+s.l2Acc
			if s.carf {
				stalls += s.stats.RecoveryStallCycles
				carfModel, carfWall = carfModel+s.model.ns, carfWall+s.wall
				carfCalls, carfInsts = carfCalls+s.model.calls, carfInsts+s.stats.Instructions
			} else {
				convModel, convWall = convModel+s.model.ns, convWall+s.wall
			}
		}
	}
	passes := float64(acc.passes)
	l["pipeline.self_ns_per_cycle"] = (chunkNs - modelNs) / float64(cycles)
	l["pipeline.cycles"] = float64(cycles) / passes
	l["pipeline.insts"] = float64(insts) / passes
	l["core.calls_per_inst"] = float64(carfCalls) / float64(carfInsts)
	l["core.self_share"] = carfModel.Seconds() / carfWall.Seconds()
	l["regfile.self_share"] = convModel.Seconds() / convWall.Seconds()
	l["core.recovery_stall_cycles"] = float64(stalls) / passes
	l["carf_host_overhead"] = quantile(acc.overhead, 0.5)
	l["cache.l1d_miss_rate"] = float64(l1dM) / float64(l1dA)
	l["cache.l2_miss_rate"] = float64(l2M) / float64(l2A)
	l["predictor.mispredict_rate"] = float64(mispred) / float64(branches)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// modelClock counts the calls into a register file model and estimates
// the time spent in them by timing one call in clockEvery: reading the
// clock costs about as much as a typical model call, so timing every
// call would double the traced simulation's cost.
type modelClock struct {
	ns    time.Duration
	calls uint64
}

const clockEvery = 8

// sample counts a call and reports whether to time it.
func (c *modelClock) sample() bool {
	c.calls++
	return c.calls%clockEvery == 0
}

// since adds one timed call, less the cost of reading the clock.
func (c *modelClock) since(t0 time.Time) {
	if d := time.Since(t0) - clockCost; d > 0 {
		c.ns += clockEvery * d
	}
}

// clockCost is the median time of an empty timed interval.
var clockCost = func() time.Duration {
	ds := make([]float64, 1001)
	for i := range ds {
		t := time.Now()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(quantile(ds, 0.5))
}()

// timedCarf times every per-cycle call into the content-aware file.
// Embedding the concrete *core.File keeps every optional interface the
// pipeline type-asserts (Classifier, fault reporting, live-long
// sampling), so the simulation is unchanged.
type timedCarf struct {
	*core.File
	clk *modelClock
}

func (m timedCarf) Alloc() (int, bool) {
	if !m.clk.sample() {
		return m.File.Alloc()
	}
	t := time.Now()
	tag, ok := m.File.Alloc()
	m.clk.since(t)
	return tag, ok
}

func (m timedCarf) Free(tag int) {
	if !m.clk.sample() {
		m.File.Free(tag)
		return
	}
	t := time.Now()
	m.File.Free(tag)
	m.clk.since(t)
}

func (m timedCarf) Read(tag int) regfile.ValueType {
	if !m.clk.sample() {
		return m.File.Read(tag)
	}
	t := time.Now()
	v := m.File.Read(tag)
	m.clk.since(t)
	return v
}

func (m timedCarf) TryWrite(tag int, v uint64) bool {
	if !m.clk.sample() {
		return m.File.TryWrite(tag, v)
	}
	t := time.Now()
	ok := m.File.TryWrite(tag, v)
	m.clk.since(t)
	return ok
}

func (m timedCarf) ForceWrite(tag int, v uint64) {
	if !m.clk.sample() {
		m.File.ForceWrite(tag, v)
		return
	}
	t := time.Now()
	m.File.ForceWrite(tag, v)
	m.clk.since(t)
}

func (m timedCarf) TypeOf(tag int) regfile.ValueType {
	if !m.clk.sample() {
		return m.File.TypeOf(tag)
	}
	t := time.Now()
	v := m.File.TypeOf(tag)
	m.clk.since(t)
	return v
}

func (m timedCarf) ReadValue(tag int) (uint64, bool) {
	if !m.clk.sample() {
		return m.File.ReadValue(tag)
	}
	t := time.Now()
	v, ok := m.File.ReadValue(tag)
	m.clk.since(t)
	return v, ok
}

func (m timedCarf) NoteAddress(addr uint64) {
	if !m.clk.sample() {
		m.File.NoteAddress(addr)
		return
	}
	t := time.Now()
	m.File.NoteAddress(addr)
	m.clk.since(t)
}

func (m timedCarf) OnRobInterval(tags []int) {
	if !m.clk.sample() {
		m.File.OnRobInterval(tags)
		return
	}
	t := time.Now()
	m.File.OnRobInterval(tags)
	m.clk.since(t)
}

func (m timedCarf) LongStall(threshold int) bool {
	if !m.clk.sample() {
		return m.File.LongStall(threshold)
	}
	t := time.Now()
	v := m.File.LongStall(threshold)
	m.clk.since(t)
	return v
}

func (m timedCarf) Classify(v uint64) regfile.ValueType {
	if !m.clk.sample() {
		return m.File.Classify(v)
	}
	t := time.Now()
	c := m.File.Classify(v)
	m.clk.since(t)
	return c
}

func (m timedCarf) SampleLiveLong() {
	if !m.clk.sample() {
		m.File.SampleLiveLong()
		return
	}
	t := time.Now()
	m.File.SampleLiveLong()
	m.clk.since(t)
}

// timedConv times every per-cycle call into the conventional file.
type timedConv struct {
	*regfile.Conventional
	clk *modelClock
}

func (m timedConv) Alloc() (int, bool) {
	if !m.clk.sample() {
		return m.Conventional.Alloc()
	}
	t := time.Now()
	tag, ok := m.Conventional.Alloc()
	m.clk.since(t)
	return tag, ok
}

func (m timedConv) Free(tag int) {
	if !m.clk.sample() {
		m.Conventional.Free(tag)
		return
	}
	t := time.Now()
	m.Conventional.Free(tag)
	m.clk.since(t)
}

func (m timedConv) Read(tag int) regfile.ValueType {
	if !m.clk.sample() {
		return m.Conventional.Read(tag)
	}
	t := time.Now()
	v := m.Conventional.Read(tag)
	m.clk.since(t)
	return v
}

func (m timedConv) TryWrite(tag int, v uint64) bool {
	if !m.clk.sample() {
		return m.Conventional.TryWrite(tag, v)
	}
	t := time.Now()
	ok := m.Conventional.TryWrite(tag, v)
	m.clk.since(t)
	return ok
}

func (m timedConv) ForceWrite(tag int, v uint64) {
	if !m.clk.sample() {
		m.Conventional.ForceWrite(tag, v)
		return
	}
	t := time.Now()
	m.Conventional.ForceWrite(tag, v)
	m.clk.since(t)
}

func (m timedConv) TypeOf(tag int) regfile.ValueType {
	if !m.clk.sample() {
		return m.Conventional.TypeOf(tag)
	}
	t := time.Now()
	v := m.Conventional.TypeOf(tag)
	m.clk.since(t)
	return v
}

func (m timedConv) ReadValue(tag int) (uint64, bool) {
	if !m.clk.sample() {
		return m.Conventional.ReadValue(tag)
	}
	t := time.Now()
	v, ok := m.Conventional.ReadValue(tag)
	m.clk.since(t)
	return v, ok
}

func (m timedConv) NoteAddress(addr uint64) {
	if !m.clk.sample() {
		m.Conventional.NoteAddress(addr)
		return
	}
	t := time.Now()
	m.Conventional.NoteAddress(addr)
	m.clk.since(t)
}

func (m timedConv) OnRobInterval(tags []int) {
	if !m.clk.sample() {
		m.Conventional.OnRobInterval(tags)
		return
	}
	t := time.Now()
	m.Conventional.OnRobInterval(tags)
	m.clk.since(t)
}

func (m timedConv) LongStall(threshold int) bool {
	if !m.clk.sample() {
		return m.Conventional.LongStall(threshold)
	}
	t := time.Now()
	v := m.Conventional.LongStall(threshold)
	m.clk.since(t)
	return v
}
