package main

import (
	"encoding/hex"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"carf/internal/experiments"
	"carf/internal/pipeline"
	"carf/internal/sched"
	"carf/internal/store"
)

const (
	// coldScale sizes study-cold: 641 simulations per pass.
	coldScale = 0.05
	// warmScale sizes the store study-warm reads. A warm pass does the
	// same work at any scale (a load per result), so set-up populates
	// the store small.
	warmScale = 0.02
	// studyPool and studyJobs pin the load shape: a pool of two
	// simulation workers and two experiments in flight.
	studyPool = 2
	studyJobs = 2
)

// warmExperiments are the experiments whose runs are all plain,
// persistable simulations, so a warm store serves every one of them.
var warmExperiments = []string{"table2", "fig5", "fig6", "fig7", "fig8", "fig9",
	"table3", "table4", "sweeps", "wrongpath", "cluster", "kernels", "calibration"}

func allExperiments() []string { return experiments.Names() }

// passResult is one study pass: every experiment run through a fresh
// scheduler over a freshly opened store, and rendered.
type passResult struct {
	dir     string // the store's directory
	wall    time.Duration
	digests map[string]string // experiment -> digest of its rendered text
	expWall map[string]time.Duration
	render  time.Duration // summed Render time
	ipcRel  float64       // from the kernels experiment's table (0 if not run)
	sched   sched.Stats
	store   store.Stats
	tap     *tierTap
	obs     *observer
}

// studyPass runs names at scale through a new scheduler (pool 2, Batch 1)
// over a store opened on dir, two experiments at a time in an order drawn
// from the run's RNG, as a restarted carfstudy -store process would.
func (r *run) studyPass(names []string, scale float64, dir string, tr *tracer, group string) (*passResult, error) {
	t0 := time.Now()
	passID := tr.id()
	oid, to := tr.id(), time.Now()
	st, err := store.Open(store.Options{
		Dir:    dir,
		Schema: experiments.StoreSchema,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		return nil, err
	}
	tr.record(oid, passID, group, "store.Open", to, nil)
	res := &passResult{dir: dir, digests: map[string]string{}, expWall: map[string]time.Duration{}}
	res.obs = newObserver(tr, group, passID)
	res.tap = &tierTap{st: st, tr: tr, group: group, obs: res.obs, insts: map[sched.Key]uint64{}}
	res.obs.tap = res.tap
	s := sched.New(studyPool)
	s.SetTier(res.tap)
	s.SetLocker(res.tap)
	s.SetObserver(res.obs)

	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, studyJobs)
	var wg sync.WaitGroup
	for _, i := range r.rng.Perm(len(names)) {
		name := names[i]
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			eid, te := tr.id(), time.Now()
			out, err := experiments.Run(name, experiments.Options{Scale: scale, Sched: s, Batch: 1})
			var text string
			var render time.Duration
			if err == nil {
				rid, tr0 := tr.id(), time.Now()
				text = out.Render()
				render = time.Since(tr0)
				tr.record(rid, eid, group, "experiments.Render", tr0, nil)
			}
			wall := time.Since(te)
			tr.record(eid, passID, group, "exp."+name, te, nil)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", name, err)
				}
				return
			}
			res.digests[name] = digest(text)
			res.expWall[name] = wall
			res.render += render
			if name == "kernels" {
				res.ipcRel = kernelsIPCRel(out)
			}
		}()
	}
	wg.Wait()
	if err := st.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	res.wall = time.Since(t0)
	tr.record(passID, 0, group, "study.pass", t0, nil)
	res.sched, res.store = s.Stats(), st.Stats()
	return res, firstErr
}

// check compares a pass's rendered digests with the expected ones and
// rejects quarantined blobs.
func (p *passResult) check(want map[string]string) error {
	for name, d := range p.digests {
		if want[name] != d {
			return fmt.Errorf("%s: rendered digest %s, want %s", name, d, want[name])
		}
	}
	if q := p.store.Quarantined; q != 0 {
		return fmt.Errorf("%d blobs quarantined", q)
	}
	return nil
}

// kernelsIPCRel is the suite mean of content-aware over baseline IPC as
// the kernels experiment's table prints them (three decimals).
func kernelsIPCRel(out experiments.Result) float64 {
	t := out.Tables[0]
	col := map[string]int{}
	for i, h := range t.Header {
		col[h] = i
	}
	var s float64
	for _, row := range t.Rows {
		base, _ := strconv.ParseFloat(row[col["IPC base"]], 64)
		carf, _ := strconv.ParseFloat(row[col["IPC carf"]], 64)
		s += carf / base
	}
	return s / float64(len(t.Rows))
}

// coldPass runs all 20 experiments at coldScale into a fresh store and
// applies study-cold's count gate. Store directories are removed with
// the run's temporary directory at exit, not inside the timed window.
func (r *run) coldPass(tr *tracer, group string) (*passResult, error) {
	dir, err := os.MkdirTemp(r.tmp, "cold-")
	if err != nil {
		return nil, err
	}
	p, err := r.studyPass(allExperiments(), coldScale, dir, tr, group)
	if err != nil {
		return p, err
	}
	if p.sched.Misses != expected.ColdSims || p.sched.Errors != 0 {
		return p, fmt.Errorf("%w: pass simulated %d runs with %d errors, want %d with none",
			errGate, p.sched.Misses, p.sched.Errors, expected.ColdSims)
	}
	p.tap.putBytes = dirBytes(p.store.Dir)
	return p, nil
}

// warmPass serves warmExperiments at scale from the store in dir and
// applies study-warm's count gate: nothing may be simulated.
func (r *run) warmPass(scale float64, dir string, tr *tracer, group string) (*passResult, error) {
	p, err := r.studyPass(warmExperiments, scale, dir, tr, group)
	if err != nil {
		return p, err
	}
	if p.sched.Misses != 0 || p.sched.Errors != 0 {
		return p, fmt.Errorf("%w: warm pass simulated %d runs (%d errors), want none", errGate, p.sched.Misses, p.sched.Errors)
	}
	return p, nil
}

// studyCold runs all 20 experiments at coldScale into a fresh store each
// pass: the scheduler's dedup and pool, every run kind, and store writes
// with leases.
func studyCold(r *run) error {
	r.provenance()
	r.note("scale", fmt.Sprint(coldScale))
	return r.study(false, coldScale, func() error {
		p, err := r.coldPass(nil, "warmup")
		if err != nil {
			return err
		}
		return p.check(expected.Cold)
	}, r.coldPass, expected.Cold)
}

// studyWarm serves the persistable experiments from a store populated
// during set-up; each pass opens the store and a scheduler anew.
func studyWarm(r *run) error {
	r.provenance()
	r.note("scale", fmt.Sprint(warmScale))
	dir := filepath.Join(r.tmp, "warm")
	return r.study(true, warmScale, func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		p, err := r.studyPass(warmExperiments, warmScale, dir, nil, "populate")
		if err != nil {
			return err
		}
		if err := p.check(expected.Warm); err != nil {
			return err
		}
		if p, err = r.warmPass(warmScale, dir, nil, "warmup"); err != nil {
			return err
		}
		return p.check(expected.Warm)
	}, func(tr *tracer, group string) (*passResult, error) {
		return r.warmPass(warmScale, dir, tr, group)
	}, expected.Warm)
}

// study is the timed part both study workloads share.
func (r *run) study(warm bool, scale float64, setup func() error,
	pass func(tr *tracer, group string) (*passResult, error), want map[string]string) error {
	setupS, err := r.setupTimes(func() error {
		if _, err := buildKernels(r.spans, "setup", scale); err != nil {
			return err
		}
		return setup()
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	e := endToEnd{setupS: setupS}
	in := &layerInputs{}
	var wall [2]time.Duration // index 0: untraced passes, 1: traced
	var insts [2]uint64
	gc0, alloc0 := readGC(), heapAllocBytes()
	w, err := r.timed(func(i int) ([]float64, error) {
		var tr *tracer
		t := 0
		if r.traced && i%2 == 1 {
			tr, t = r.spans, 1
		}
		p, err := pass(tr, fmt.Sprintf("pass%d", i))
		if err != nil {
			return nil, err
		}
		r.check(p.check(want))
		n, served := p.tap.delivered()
		wall[t], insts[t] = wall[t]+p.wall, insts[t]+n
		e.insts += n
		e.resultsServed += served
		e.ipcRelCarf = p.ipcRel
		switch {
		case tr == nil:
			return p.obs.nsPerInst, nil
		case warm:
			in.warm = append(in.warm, p)
		default:
			in.cold = append(in.cold, p)
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	e.allocBytes = heapAllocBytes() - alloc0
	in.gc = readGC().sub(gc0)
	e.window = w
	if !r.traced {
		r.reportEndToEnd(e)
		return nil
	}
	in.passes = len(w.raw)
	in.overhead = throughput(insts[0], wall[0]) / throughput(insts[1], wall[1])
	return r.reportLayers(in)
}

// perPass is the median over passes of f.
func perPass(passes []*passResult, f func(p *passResult) float64) float64 {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, f(p))
	}
	return quantile(xs, 0.5)
}

// coldLayers derives the write-side orchestration metrics (scheduler
// misses and pool, store writes and leases, per-experiment time) from
// traced cold passes, as per-pass medians or pooled percentiles.
func coldLayers(l map[string]float64, passes []*passResult) {
	var queue, simMs, putMs, leaseMs []float64
	for _, p := range passes {
		queue = append(queue, ms(p.obs.queue)...)
		simMs = append(simMs, ms(p.obs.sim)...)
		putMs = append(putMs, ms(p.tap.puts)...)
		leaseMs = append(leaseMs, ms(p.tap.leases)...)
	}
	at := func(name string, f func(p *passResult) float64) { l[name] = perPass(passes, f) }
	at("sched.requests", func(p *passResult) float64 { return float64(p.sched.Runs) })
	at("sched.misses", func(p *passResult) float64 { return float64(p.sched.Misses) })
	at("sched.hits", func(p *passResult) float64 { return float64(p.sched.Hits) })
	at("sched.joins", func(p *passResult) float64 { return float64(p.sched.Joins) })
	at("sched.dedup", func(p *passResult) float64 { return float64(p.sched.Misses) / float64(p.sched.Runs) })
	l["sched.queue_wait_ms_p50"], l["sched.queue_wait_ms_p90"] = quantile(queue, 0.5), quantile(queue, 0.9)
	l["sched.sim_ms_p50"], l["sched.sim_ms_p90"] = quantile(simMs, 0.5), quantile(simMs, 0.9)
	at("sched.pool_busy", func(p *passResult) float64 {
		return p.sched.SimWall.Seconds() / (float64(p.sched.Workers) * p.wall.Seconds())
	})
	for _, k := range runKinds {
		at("sched.sim_s."+k, func(p *passResult) float64 { return p.obs.simByKind[k].Seconds() })
	}
	l["store.put_ms_p50"], l["store.put_ms_p90"] = quantile(putMs, 0.5), quantile(putMs, 0.9)
	at("store.puts", func(p *passResult) float64 { return float64(p.store.Puts) })
	at("store.put_kb", func(p *passResult) float64 { return float64(p.tap.putBytes) / 1024 })
	l["store.lease_ms_p50"] = quantile(leaseMs, 0.5)
	at("store.leases", func(p *passResult) float64 { return float64(len(p.tap.leases)) })
	for _, id := range experiments.Names() {
		at("exp."+id+"_s", func(p *passResult) float64 { return p.expWall[id].Seconds() })
	}
}

// warmLayers derives the read-side orchestration metrics (the scheduler's
// hit path, store opens and loads, rendering) from traced warm passes.
func warmLayers(l map[string]float64, passes []*passResult) {
	var hitUs, loadUs []float64
	for _, p := range passes {
		hitUs = append(hitUs, us(p.obs.hit)...)
		loadUs = append(loadUs, us(p.tap.loads)...)
	}
	at := func(name string, f func(p *passResult) float64) { l[name] = perPass(passes, f) }
	at("sched.disk_hits", func(p *passResult) float64 { return float64(p.sched.DiskHits) })
	l["sched.hit_us_p50"], l["sched.hit_us_p90"] = quantile(hitUs, 0.5), quantile(hitUs, 0.9)
	at("store.open_ms", func(p *passResult) float64 { return p.tap.openMs() })
	l["store.load_us_p50"], l["store.load_us_p90"] = quantile(loadUs, 0.5), quantile(loadUs, 0.9)
	at("store.disk_hits", func(p *passResult) float64 { return float64(p.store.DiskHits) })
	at("store.load_kb", func(p *passResult) float64 { return float64(p.tap.loadBytes()) / 1024 })
	at("experiments.render_ms", func(p *passResult) float64 { return float64(p.render.Nanoseconds()) / 1e6 })
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// dirBytes is the total size of the blob files directly under dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".blob") {
			n += info.Size()
		}
	}
	return n
}

// tierTap sits between the scheduler and the store: it forwards every
// tier and lease call unchanged, times it, and counts the simulated
// instructions carried by each result stored or loaded. With a tracer,
// each call is also a span under the request that made it.
type tierTap struct {
	st    *store.Store
	tr    *tracer
	group string
	obs   *observer

	mu       sync.Mutex
	insts    map[sched.Key]uint64 // committed instructions per result stored or loaded
	total    uint64               // summed over results stored or loaded
	served   int
	puts     []time.Duration
	loads    []time.Duration
	leases   []time.Duration // TryLock plus release
	loaded   []sched.Key
	putBytes int64
}

// Load implements sched.Tier.
func (t *tierTap) Load(key sched.Key) (any, bool) {
	id, t0 := t.tr.id(), time.Now()
	v, ok := t.st.Load(key)
	d := time.Since(t0)
	t.tr.record(id, t.obs.parent(key), t.group, "store.Load", t0, nil)
	t.mu.Lock()
	t.loads = append(t.loads, d)
	if ok {
		t.loaded = append(t.loaded, key)
		t.countLocked(key, v)
	}
	t.mu.Unlock()
	return v, ok
}

// Store implements sched.Tier.
func (t *tierTap) Store(key sched.Key, val any) {
	id, t0 := t.tr.id(), time.Now()
	t.st.Store(key, val)
	d := time.Since(t0)
	t.tr.record(id, t.obs.parent(key), t.group, "store.Store", t0, nil)
	t.mu.Lock()
	t.puts = append(t.puts, d)
	t.countLocked(key, val)
	t.mu.Unlock()
}

// TryLock implements sched.Locker.
func (t *tierTap) TryLock(key sched.Key) (func(), bool) {
	id, t0 := t.tr.id(), time.Now()
	release, ok := t.st.TryLock(key)
	held := time.Since(t0)
	t.tr.record(id, t.obs.parent(key), t.group, "store.TryLock", t0, nil)
	if !ok {
		return release, ok
	}
	return func() {
		id, t1 := t.tr.id(), time.Now()
		release()
		t.tr.record(id, t.obs.parent(key), t.group, "store.release", t1, nil)
		t.mu.Lock()
		t.leases = append(t.leases, held+time.Since(t1))
		t.mu.Unlock()
	}, ok
}

// countLocked adds the instructions of every pipeline.Stats reachable
// from v. Callers hold t.mu.
func (t *tierTap) countLocked(key sched.Key, v any) {
	n := instsIn(reflect.ValueOf(v))
	t.insts[key] = n
	t.total += n
	t.served++
}

// delivered returns the instructions carried by, and the number of, the
// results the pass stored or loaded.
func (t *tierTap) delivered() (uint64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.served
}

func (t *tierTap) instsOf(key sched.Key) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insts[key]
}

// loadBytes is the total size of the blobs the pass loaded.
func (t *tierTap) loadBytes() int64 {
	dir := t.st.Stats().Dir
	var n int64
	for _, key := range t.loaded {
		if info, err := os.Stat(filepath.Join(dir, hex.EncodeToString(key[:])+".blob")); err == nil {
			n += info.Size()
		}
	}
	return n
}

// openMs is the store.Open span's length, from the tracer.
func (t *tierTap) openMs() float64 {
	for _, s := range t.tr.named("store.Open", func(g string) bool { return g == t.group }) {
		return float64(s.dur().Nanoseconds()) / 1e6
	}
	return 0
}

var statsType = reflect.TypeOf(pipeline.Stats{})

// instsIn sums the committed instructions of every pipeline.Stats
// reachable from v through fields, pointers, interfaces, slices and
// arrays. Fields are read through reflection, so stats inside unexported
// fields are found too.
func instsIn(v reflect.Value) uint64 {
	var n uint64
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			n += instsIn(v.Elem())
		}
	case reflect.Struct:
		if v.Type() == statsType {
			return v.FieldByName("Instructions").Uint()
		}
		for i := 0; i < v.NumField(); i++ {
			n += instsIn(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += instsIn(v.Index(i))
		}
	}
	return n
}

// observer is the benchmark's sched.Observer. It times every request
// from enqueue to finish and keeps per-miss queue and simulation times;
// with a tracer it also records each request as a span, with its queue
// wait and simulation as children.
type observer struct {
	tr    *tracer
	group string
	pass  uint64
	tap   *tierTap

	mu        sync.Mutex
	open      map[uint64]request
	leader    map[sched.Key]uint64 // first open request per key: the one that reaches the tier
	queue     []time.Duration
	sim       []time.Duration
	hit       []time.Duration
	simByKind map[string]time.Duration
	nsPerInst []float64 // per simulation (miss) or per result loaded (disk hit)
}

type request struct {
	key     sched.Key
	label   string
	span    uint64
	start   time.Time
	started time.Time
}

func newObserver(tr *tracer, group string, pass uint64) *observer {
	return &observer{tr: tr, group: group, pass: pass,
		open: map[uint64]request{}, leader: map[sched.Key]uint64{}, simByKind: map[string]time.Duration{}}
}

// parent is the span id of the request that is calling the tier for key.
func (o *observer) parent(key sched.Key) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if id, ok := o.leader[key]; ok {
		return o.open[id].span
	}
	return o.pass
}

func (o *observer) RunEnqueued(id uint64, key sched.Key, label string) {
	span := o.tr.id()
	o.mu.Lock()
	o.open[id] = request{key: key, label: label, span: span, start: time.Now()}
	if _, ok := o.leader[key]; !ok {
		o.leader[key] = id
	}
	o.mu.Unlock()
}

func (o *observer) RunStarted(id uint64) {
	o.mu.Lock()
	q := o.open[id]
	q.started = time.Now()
	o.open[id] = q
	o.mu.Unlock()
}

func (o *observer) RunProgressed(uint64, sched.Progress) {}

func (o *observer) RunFinished(id uint64, p sched.Provenance, err error) {
	end := time.Now()
	o.mu.Lock()
	q := o.open[id]
	delete(o.open, id)
	if o.leader[q.key] == id {
		delete(o.leader, q.key)
	}
	o.mu.Unlock()
	kind, _, _ := strings.Cut(q.label, "/")
	insts := o.tap.instsOf(q.key)
	o.mu.Lock()
	switch p.Outcome {
	case sched.Miss:
		o.queue = append(o.queue, p.QueueWait)
		o.sim = append(o.sim, p.SimWall)
		o.simByKind[kind] += p.SimWall
		if insts > 0 {
			o.nsPerInst = append(o.nsPerInst, float64(p.SimWall.Nanoseconds())/float64(insts))
		}
	case sched.DiskHit:
		o.hit = append(o.hit, end.Sub(q.start))
		if insts > 0 {
			o.nsPerInst = append(o.nsPerInst, float64(end.Sub(q.start).Nanoseconds())/float64(insts))
		}
	case sched.Hit:
		o.hit = append(o.hit, end.Sub(q.start))
	}
	o.mu.Unlock()
	if o.tr == nil {
		return
	}
	o.tr.add(span{ID: q.span, Parent: o.pass, Group: o.group, Name: "sched.request", Start: q.start, End: end,
		Attrs: map[string]float64{"outcome": float64(p.Outcome)}})
	if p.Outcome == sched.Miss {
		o.tr.add(span{ID: o.tr.id(), Parent: q.span, Group: o.group, Name: "sched.queue", Start: q.start, End: q.started})
		o.tr.add(span{ID: o.tr.id(), Parent: q.span, Group: o.group, Name: "sim." + kind, Start: q.started, End: q.started.Add(p.SimWall)})
	}
}
