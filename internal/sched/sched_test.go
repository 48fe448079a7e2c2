package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carf/internal/metrics"
)

func TestKeyOfDistinguishesParts(t *testing.T) {
	type cfg struct {
		A int
		B bool
	}
	base := KeyOf("sim", "qsort", 0.25, cfg{A: 1})
	cases := map[string]Key{
		"kind":        KeyOf("oracle", "qsort", 0.25, cfg{A: 1}),
		"kernel":      KeyOf("sim", "crc64", 0.25, cfg{A: 1}),
		"scale":       KeyOf("sim", "qsort", 0.5, cfg{A: 1}),
		"config":      KeyOf("sim", "qsort", 0.25, cfg{A: 2}),
		"config bool": KeyOf("sim", "qsort", 0.25, cfg{A: 1, B: true}),
		"extra part":  KeyOf("sim", "qsort", 0.25, cfg{A: 1}, 128),
	}
	for name, k := range cases {
		if k == base {
			t.Errorf("%s variation collides with the base key", name)
		}
	}
	if again := KeyOf("sim", "qsort", 0.25, cfg{A: 1}); again != base {
		t.Error("identical parts produced different keys")
	}
}

func TestDoMissHitJoin(t *testing.T) {
	s := New(4)
	key := KeyOf("t", 1)
	var execs atomic.Int64
	run := func() (any, Provenance, error) {
		return do(s, key, "", true, func() (any, error) {
			execs.Add(1)
			time.Sleep(10 * time.Millisecond)
			return 42, nil
		})
	}

	v, prov, err := run()
	if err != nil || v.(int) != 42 || prov.Outcome != Miss {
		t.Fatalf("first call: v=%v prov=%+v err=%v", v, prov, err)
	}
	v, prov, err = run()
	if err != nil || v.(int) != 42 || prov.Outcome != Hit {
		t.Fatalf("second call: v=%v prov=%+v err=%v", v, prov, err)
	}

	// Concurrent requests for a fresh key share one execution.
	key2 := KeyOf("t", 2)
	var wg sync.WaitGroup
	var joined atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, prov, err := do(s, key2, "", true, func() (any, error) {
				execs.Add(1)
				time.Sleep(20 * time.Millisecond)
				return "shared", nil
			})
			if err != nil || v.(string) != "shared" {
				t.Errorf("join: v=%v err=%v", v, err)
			}
			if prov.Outcome == Joined {
				joined.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := execs.Load(); got != 2 {
		t.Errorf("executions = %d, want 2 (one per unique key)", got)
	}
	st := s.Stats()
	if st.Joins != uint64(joined.Load()) || st.Joins == 0 {
		t.Errorf("stats joins = %d, observed %d", st.Joins, joined.Load())
	}
	if st.Hits != 1 || st.Misses != 2 || st.Runs != 10 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 10 runs", st)
	}
	if st.CacheEntries != 2 {
		t.Errorf("cache entries = %d, want 2", st.CacheEntries)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := New(2)
	key := KeyOf("fails")
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, prov, err := do(s, key, "", true, func() (any, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) || prov.Outcome != Miss {
			t.Fatalf("call %d: prov=%+v err=%v", i, prov, err)
		}
	}
	if calls != 2 {
		t.Errorf("failing function ran %d times, want 2 (errors must not be memoized)", calls)
	}
	if st := s.Stats(); st.Errors != 2 || st.CacheEntries != 0 {
		t.Errorf("stats = %+v, want 2 errors and an empty cache", st)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	s := New(workers)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := do(s, KeyOf("job", i), "", true, func() (any, error) {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				cur.Add(-1)
				return nil, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent simulations, pool bound is %d", p, workers)
	}
}

func TestSetWorkersUnblocksWaiters(t *testing.T) {
	s := New(1)
	release := make(chan struct{})
	started := make(chan struct{})
	go do(s, KeyOf("hold"), "", false, func() (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started

	done := make(chan struct{})
	go func() {
		do(s, KeyOf("waits"), "", false, func() (any, error) { return nil, nil })
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("second job ran despite a full 1-worker pool")
	case <-time.After(20 * time.Millisecond):
	}
	s.SetWorkers(2)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("growing the pool did not unblock the queued job")
	}
	close(release)
	if got := s.Workers(); got != 2 {
		t.Errorf("Workers() = %d, want 2", got)
	}
}

func TestDisableMemo(t *testing.T) {
	s := New(2)
	s.DisableMemo()
	key := KeyOf("same")
	calls := 0
	for i := 0; i < 3; i++ {
		_, prov, err := do(s, key, "", true, func() (any, error) {
			calls++
			return i, nil
		})
		if err != nil || prov.Outcome != Miss {
			t.Fatalf("call %d: prov=%+v err=%v", i, prov, err)
		}
	}
	if calls != 3 {
		t.Errorf("memo-disabled scheduler ran %d executions, want 3", calls)
	}
	if st := s.Stats(); st.Hits != 0 || st.Joins != 0 || st.CacheEntries != 0 {
		t.Errorf("memo-disabled stats = %+v, want no hits/joins/cache", st)
	}
}

func TestForEachOrderAndErrors(t *testing.T) {
	out := make([]int, 8)
	if err := ForEach(8, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}

	first := errors.New("first")
	err := ForEach(4, func(i int) error {
		if i >= 2 {
			return errors.New("later")
		}
		if i == 1 {
			return first
		}
		return nil
	})
	if !errors.Is(err, first) {
		t.Errorf("ForEach error = %v, want the lowest-index error", err)
	}
}

// TestMetricsRegistryExposesCounters: Readings exports the monotonic
// totals as counters and the hit rate as a gauge.
func TestMetricsRegistryExposesCounters(t *testing.T) {
	s := New(2)
	key := KeyOf("m")
	for i := 0; i < 3; i++ {
		do(s, key, "", true, func() (any, error) { return nil, nil })
	}
	byName := map[string]metrics.Reading{}
	for _, rd := range s.Readings() {
		byName[rd.Name] = rd
	}
	for name, v := range map[string]float64{
		"sched.runs":   3,
		"sched.misses": 1,
		"sched.hits":   2,
	} {
		rd, ok := byName[name]
		if !ok {
			t.Fatalf("reading %s missing", name)
		}
		if rd.Kind != metrics.ReadCounter || rd.Value != v {
			t.Errorf("%s = kind %d value %v, want a counter at %v", name, rd.Kind, rd.Value, v)
		}
	}
	for _, name := range []string{"sched.joins", "sched.errors", "sched.queue_wait_ms", "sched.sim_wall_ms"} {
		if rd := byName[name]; rd.Kind != metrics.ReadCounter {
			t.Errorf("%s has kind %d, want a counter", name, rd.Kind)
		}
	}
	if rd := byName["sched.hit_rate"]; rd.Kind != metrics.ReadGauge || rd.Value < 0.6 || rd.Value > 0.7 {
		t.Errorf("sched.hit_rate = kind %d value %v, want a gauge at 2/3", rd.Kind, rd.Value)
	}
}

func TestGlobalIsSingleton(t *testing.T) {
	if Global() != Global() {
		t.Error("Global returned distinct schedulers")
	}
	if Global().Workers() < 1 {
		t.Error("global scheduler has no workers")
	}
}

// recObserver records lifecycle callbacks for assertions.
type recObserver struct {
	mu         sync.Mutex
	enqueued   []string // "id:label"
	started    []uint64
	progressed map[uint64][]Progress
	finished   map[uint64]Provenance
}

func newRecObserver() *recObserver {
	return &recObserver{
		progressed: map[uint64][]Progress{},
		finished:   map[uint64]Provenance{},
	}
}

func (o *recObserver) RunEnqueued(id uint64, key Key, label string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.enqueued = append(o.enqueued, fmt.Sprintf("%d:%s", id, label))
}

func (o *recObserver) RunStarted(id uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started = append(o.started, id)
}

func (o *recObserver) RunProgressed(id uint64, p Progress) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.progressed[id] = append(o.progressed[id], p)
}

func (o *recObserver) RunFinished(id uint64, p Provenance, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.finished[id] = p
}

func TestObserverLifecycle(t *testing.T) {
	s := New(2)
	obs := newRecObserver()
	s.SetObserver(obs)
	key := KeyOf("obs", 1)

	_, p1, err := do(s, key, "sim/a/base", true, func() (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	_, p2, err := do(s, key, "sim/a/base", true, func() (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if p1.Outcome != Miss || p2.Outcome != Hit {
		t.Fatalf("outcomes = %v, %v", p1.Outcome, p2.Outcome)
	}
	if p1.Key != key || p2.Key != key {
		t.Error("Provenance.Key not threaded through")
	}
	if key.Short() == "" || key.Short() != p1.Key.Short() {
		t.Errorf("Short() = %q", key.Short())
	}

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.enqueued) != 2 || obs.enqueued[0] != "1:sim/a/base" || obs.enqueued[1] != "2:sim/a/base" {
		t.Errorf("enqueued = %v", obs.enqueued)
	}
	if len(obs.started) != 1 || obs.started[0] != 1 {
		t.Errorf("started = %v, want only the miss", obs.started)
	}
	if len(obs.finished) != 2 {
		t.Fatalf("finished = %v", obs.finished)
	}
	if obs.finished[1].Outcome != Miss || obs.finished[2].Outcome != Hit {
		t.Errorf("finished outcomes = %v / %v", obs.finished[1].Outcome, obs.finished[2].Outcome)
	}
	if obs.finished[1].SimWall < 0 {
		t.Error("miss finished without sim wall")
	}
}

func TestObserverSeesJoins(t *testing.T) {
	s := New(4)
	obs := newRecObserver()
	s.SetObserver(obs)
	key := KeyOf("obs-join")
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(s, key, "join-me", true, func() (any, error) {
				time.Sleep(20 * time.Millisecond)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	obs.mu.Lock()
	defer obs.mu.Unlock()
	var st Stats
	for _, p := range obs.finished {
		st.add(p, nil)
	}
	if st.Misses != 1 || st.Misses+st.Joins+st.Hits != 6 {
		t.Errorf("finished outcomes: %d miss / %d joined / %d hit, want 1 miss of 6", st.Misses, st.Joins, st.Hits)
	}
	if len(obs.enqueued) != 6 {
		t.Errorf("enqueued %d, want 6", len(obs.enqueued))
	}
}

func TestLatencyHistograms(t *testing.T) {
	s := New(2)
	key := KeyOf("hist")
	for i := 0; i < 3; i++ {
		do(s, key, "", true, func() (any, error) {
			time.Sleep(time.Millisecond)
			return nil, nil
		})
	}
	var qw, sw metrics.Reading
	for _, rd := range s.Readings() {
		switch rd.Name {
		case "sched.queue_wait_seconds":
			qw = rd
		case "sched.sim_wall_seconds":
			sw = rd
		}
	}
	if qw.Kind != metrics.ReadHistogram || sw.Kind != metrics.ReadHistogram {
		t.Fatal("latency histograms not registered")
	}
	// Only the single miss observes; hits bypass the worker pool.
	if qw.Count != 1 || sw.Count != 1 {
		t.Errorf("histogram counts = %d / %d, want 1 / 1 (misses only)", qw.Count, sw.Count)
	}
	if sw.Sum < 0.001 {
		t.Errorf("sim wall sum = %v, want >= 1ms", sw.Sum)
	}
}

func TestTally(t *testing.T) {
	s := New(4)
	var tl Tally
	key := KeyOf("tally")
	for i := 0; i < 3; i++ {
		_, p, err := do(s, key, "", true, func() (any, error) {
			time.Sleep(time.Millisecond)
			return nil, nil
		})
		tl.Record(p, err)
	}
	_, p, err := do(s, KeyOf("tally-err"), "", true, func() (any, error) { return nil, errors.New("boom") })
	tl.Record(p, err)

	st := tl.Stats()
	if st.Runs != 4 || st.Misses != 2 || st.Hits != 2 || st.Errors != 1 {
		t.Errorf("tally stats = %+v, want 4 runs / 2 misses / 2 hits / 1 error", st)
	}
	if st.SimWall < time.Millisecond {
		t.Errorf("tally sim wall = %v", st.SimWall)
	}
	var nilTally *Tally
	nilTally.Record(p, nil) // must not panic
	if nilTally.Stats() != (Stats{}) {
		t.Error("nil tally stats not zero")
	}
}

// TestTalliesAgreeWithStats runs one request per outcome on one
// scheduler, each through its own caller's Tally, and checks that the
// tallies sum to the scheduler's own counters: both count through
// Stats.add, so a joiner that gives up is one cancellation (not also a
// join) and only the failing miss is an error.
func TestTalliesAgreeWithStats(t *testing.T) {
	s := New(1)
	tier := newFakeTier()
	tier.m[KeyOf("agree", "disk")] = "from-disk"
	s.SetTier(tier)
	tallies := map[string]*Tally{}
	call := func(ctx context.Context, tl *Tally, key string, fn func() (any, error)) error {
		_, p, err := doCtx(ctx, s, KeyOf("agree", key), "", true, fn)
		tl.Record(p, err)
		return err
	}
	tally := func(caller string) *Tally {
		tallies[caller] = new(Tally)
		return tallies[caller]
	}
	ok := func() (any, error) { return "v", nil }
	// waitRuns waits until n requests have entered the scheduler, then
	// gives the last one time to block where it is headed.
	waitRuns := func(n uint64) {
		for s.Stats().Runs < n {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
	}

	noErr := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	bg := context.Background()
	noErr(call(bg, tally("miss"), "a", ok))
	noErr(call(bg, tally("hit"), "a", ok))
	if call(bg, tally("failing-miss"), "f", func() (any, error) { return nil, errors.New("boom") }) == nil {
		t.Error("failing miss returned no error")
	}
	noErr(call(bg, tally("disk-hit"), "disk", ok))

	// The leader holds the only worker slot until released; one caller
	// joins it, one joins and then gives up, one queues and gives up.
	release := make(chan struct{})
	var wg sync.WaitGroup
	goCall := func(ctx context.Context, caller, key string, fn func() (any, error), check func(error)) {
		tl := tally(caller)
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(call(ctx, tl, key, fn))
		}()
	}
	canceledWith := func(msg string) func(error) {
		return func(err error) {
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), msg) {
				t.Errorf("err = %v, want a cancellation %q", err, msg)
			}
		}
	}
	goCall(bg, "leader", "j", func() (any, error) { <-release; return "j", nil }, noErr)
	waitRuns(5)
	goCall(bg, "join", "j", ok, noErr)
	waitRuns(6)
	joinCtx, cancelJoin := context.WithCancel(bg)
	goCall(joinCtx, "join-then-cancel", "j", ok, canceledWith("abandoned joined run"))
	waitRuns(7)
	queueCtx, cancelQueued := context.WithCancel(bg)
	goCall(queueCtx, "queued-cancel", "q", ok, canceledWith("canceled while queued"))
	waitRuns(8)
	cancelJoin()
	cancelQueued()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	var sum Stats
	for _, tl := range tallies {
		st := tl.Stats()
		sum.Runs += st.Runs
		sum.Misses += st.Misses
		sum.Hits += st.Hits
		sum.DiskHits += st.DiskHits
		sum.PeerHits += st.PeerHits
		sum.Joins += st.Joins
		sum.Canceled += st.Canceled
		sum.Errors += st.Errors
		sum.QueueWait += st.QueueWait
		sum.SimWall += st.SimWall
		sum.LeaseWait += st.LeaseWait
	}
	got := s.Stats()
	got.Workers, got.CacheEntries, got.Evictions = 0, 0, 0
	if got != sum {
		t.Errorf("scheduler stats %+v\n   tallies sum %+v", got, sum)
	}
	want := Stats{Runs: 8, Misses: 3, Hits: 1, DiskHits: 1, Joins: 1, Canceled: 2, Errors: 1}
	if got.QueueWait, got.SimWall, got.LeaseWait = 0, 0, 0; got != want {
		t.Errorf("scheduler stats %+v, want %+v", got, want)
	}
	if outcomes := got.Misses + got.Hits + got.Joins + got.DiskHits + got.PeerHits + got.Canceled; got.Runs != outcomes {
		t.Errorf("runs %d != %d outcomes", got.Runs, outcomes)
	}
}

// fakeTier is an in-memory Tier for provenance tests.
type fakeTier struct {
	mu     sync.Mutex
	m      map[Key]any
	loads  int
	stores int
}

func newFakeTier() *fakeTier { return &fakeTier{m: make(map[Key]any)} }

func (f *fakeTier) Load(key Key) (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	v, ok := f.m[key]
	return v, ok
}

func (f *fakeTier) Store(key Key, val any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores++
	f.m[key] = val
}

func TestDoCtxCanceledWhileQueued(t *testing.T) {
	s := New(1)
	release := make(chan struct{})
	started := make(chan struct{})
	go do(s, KeyOf("hog"), "", false, func() (any, error) { //nolint:errcheck
		close(started)
		<-release
		return nil, nil
	})
	<-started

	// The pool is saturated, so this request waits for a slot; cancel it
	// there and it must return promptly with Outcome Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	ran := false
	_, prov, err := doCtx(ctx, s, KeyOf("queued"), "", true, func() (any, error) {
		ran = true
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || prov.Outcome != Canceled {
		t.Fatalf("queued cancel: prov=%+v err=%v", prov, err)
	}
	if ran {
		t.Error("canceled request still executed its function")
	}
	close(release)
	if st := s.Stats(); st.Canceled != 1 {
		t.Errorf("stats = %+v, want 1 canceled", st)
	}

	// Dead on arrival: an already-expired context never queues at all.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, prov, err = doCtx(dead, s, KeyOf("doa"), "", true, func() (any, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) || prov.Outcome != Canceled {
		t.Fatalf("DOA: prov=%+v err=%v", prov, err)
	}
}

func TestJoinerDetachesOnOwnCancel(t *testing.T) {
	s := New(2)
	key := KeyOf("shared-run")
	inFn := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan Provenance, 1)
	go func() {
		_, prov, _ := do(s, key, "", true, func() (any, error) {
			close(inFn)
			<-release
			return "value", nil
		})
		leaderDone <- prov
	}()
	<-inFn

	// A joiner whose own context expires detaches; the leader keeps
	// running and still populates the cache.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, prov, err := doCtx(ctx, s, key, "", true, func() (any, error) {
		t.Error("joiner ran the function")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || prov.Outcome != Canceled {
		t.Fatalf("joiner cancel: prov=%+v err=%v", prov, err)
	}

	close(release)
	if p := <-leaderDone; p.Outcome != Miss {
		t.Fatalf("leader outcome = %v, want miss (undisturbed by joiner cancel)", p.Outcome)
	}
	v, prov, err := do(s, key, "", true, func() (any, error) { return nil, errors.New("must not run") })
	if err != nil || v.(string) != "value" || prov.Outcome != Hit {
		t.Errorf("post-detach request: v=%v prov=%+v err=%v (leader's result should be cached)", v, prov, err)
	}
}

func TestTierDiskHitProvenance(t *testing.T) {
	tier := newFakeTier()
	key := KeyOf("persisted")
	tier.m[key] = "from-disk"

	s := New(2)
	s.SetTier(tier)
	v, prov, err := do(s, key, "", true, func() (any, error) {
		t.Error("tier-resident run was re-simulated")
		return nil, nil
	})
	if err != nil || v.(string) != "from-disk" || prov.Outcome != DiskHit {
		t.Fatalf("tier load: v=%v prov=%+v err=%v", v, prov, err)
	}
	// The disk hit was promoted into the memory cache: a repeat is a
	// plain hit and does not touch the tier again.
	loadsBefore := tier.loads
	v, prov, err = do(s, key, "", true, func() (any, error) { return nil, nil })
	if err != nil || v.(string) != "from-disk" || prov.Outcome != Hit {
		t.Fatalf("promoted hit: v=%v prov=%+v err=%v", v, prov, err)
	}
	if tier.loads != loadsBefore {
		t.Error("memory hit consulted the tier")
	}
	// Fresh misses are offered to the tier.
	if _, _, err := do(s, KeyOf("fresh"), "", true, func() (any, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if tier.stores != 1 {
		t.Errorf("tier stores = %d, want 1", tier.stores)
	}
	if st := s.Stats(); st.DiskHits != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 disk hit / 1 hit / 1 miss", st)
	}
}

func TestCacheCapEvictsLRUIntoTier(t *testing.T) {
	tier := newFakeTier()
	s := New(2)
	s.SetTier(tier)
	s.SetCacheCap(2)
	for i := 0; i < 3; i++ {
		if _, _, err := do(s, KeyOf("evict", i), "", true, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheEntries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 cache entries and 1 eviction", st)
	}
	// The evicted (least recently used) entry comes back from the tier,
	// not a re-simulation.
	v, prov, err := do(s, KeyOf("evict", 0), "", true, func() (any, error) {
		t.Error("evicted run was re-simulated despite the tier holding it")
		return nil, nil
	})
	if err != nil || v.(int) != 0 || prov.Outcome != DiskHit {
		t.Fatalf("evicted reload: v=%v prov=%+v err=%v", v, prov, err)
	}
}

// do is a DoProgress call with no deadline and no progress reporting.
func do(s *Scheduler, key Key, label string, cacheable bool, fn func() (any, error)) (any, Provenance, error) {
	return doCtx(context.Background(), s, key, label, cacheable, fn)
}

// doCtx is a DoProgress call with no progress reporting.
func doCtx(ctx context.Context, s *Scheduler, key Key, label string, cacheable bool, fn func() (any, error)) (any, Provenance, error) {
	return s.DoProgress(ctx, key, label, cacheable, nil, func(ProgressFunc) (any, error) { return fn() })
}
