// Package sched is the process-global simulation scheduler: every
// experiment submits its simulations to one bounded worker pool instead
// of running a private semaphore, and completed runs are memoized in a
// content-addressed cache so two experiments requesting the same
// (kernel, model, configuration) combination share one execution.
//
// Three mechanisms compose:
//
//   - A resizable bounded pool. DoProgress blocks until a worker slot is
//     free, so the total simulation concurrency stays bounded no matter
//     how many experiments fan out at once.
//   - Content-keyed memoization. Cacheable runs are stored by a digest
//     of everything that determines their result (see KeyOf); a later
//     request with the same key returns the stored value without
//     simulating. Cached values are immutable snapshots — callers must
//     not mutate anything reachable from a returned value.
//   - Singleflight deduplication. A request whose key matches a run
//     already in flight joins it (waits for the one execution) instead
//     of starting a second simulation.
//
// Every DoProgress call returns a Provenance (hit / miss / joined,
// queue wait, simulation wall time); cumulative counters are available
// through Stats and, for Prometheus exposition, through Readings.
package sched

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"carf/internal/metrics"
)

// Outcome classifies how a DoProgress call was served.
type Outcome uint8

const (
	// Miss: the run was simulated by this call.
	Miss Outcome = iota
	// Hit: the result came from the in-memory completed-run cache.
	Hit
	// Joined: an identical run was already in flight; this call waited
	// for it and shared its result.
	Joined
	// DiskHit: the result came from the persistent tier (see SetTier) —
	// computed by an earlier process or evicted from memory since.
	DiskHit
	// Canceled: the request's context expired before a result was
	// available (while queued for a worker slot, or while joined to an
	// in-flight run that had not finished yet).
	Canceled
	// PeerHit: another *process* sharing the persistent tier held the
	// cross-process lease for this key (see Locker); this call waited
	// for the peer's blob to land instead of simulating. The
	// cross-process analogue of Joined.
	PeerHit
)

// outcomeNames are the Outcome names /runs, frames and logs show.
var outcomeNames = [...]string{Miss: "miss", Hit: "hit", Joined: "joined", DiskHit: "disk-hit", Canceled: "canceled", PeerHit: "peer-hit"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Provenance describes how one DoProgress call was served. QueueWait and
// SimWall are nonzero only for misses (the call that actually ran the
// simulation). Key is the request's content digest — the correlation id
// that ties this run to its telemetry spans, /runs row, and log lines.
type Provenance struct {
	Outcome   Outcome
	Key       Key           // content digest of the request (correlation id)
	QueueWait time.Duration // DoProgress entry until a worker slot was acquired; ends before LeaseWait starts
	SimWall   time.Duration // wall time inside the simulation function

	// LeaseWait is the time spent waiting on another process's
	// cross-process lease for this key: the full wait for PeerHit
	// outcomes (the peer's result landed), or the wait until the lease
	// came free for misses that had to contend (the holder died or
	// stored nothing). Zero when no Locker is attached or the lease was
	// free.
	LeaseWait time.Duration
}

// Stats is a snapshot of cumulative scheduler counters: the whole
// scheduler's (Scheduler.Stats) or one caller's share of it
// (Tally.Stats). It is also the JSON shape of the sched object in
// /runs and in carfserve job documents. Once no request is in flight,
// Runs == Misses+Hits+Joins+DiskHits+PeerHits+Canceled: every request
// is counted once on entry and once, by its final outcome, on exit.
type Stats struct {
	Workers      int    `json:"workers,omitempty"`       // current pool bound (zero in a Tally)
	CacheEntries int    `json:"cache_entries,omitempty"` // completed runs held in the memo cache (zero in a Tally)
	Runs         uint64 `json:"runs"`                    // total DoProgress calls
	Misses       uint64 `json:"misses"`                  // runs simulated
	Hits         uint64 `json:"hits"`                    // runs served from the in-memory cache
	DiskHits     uint64 `json:"disk_hits"`               // runs served from the persistent tier
	PeerHits     uint64 `json:"peer_hits"`               // runs served by a peer process via the shared tier
	Joins        uint64 `json:"joins"`                   // runs that joined an in-flight execution and got its result
	Canceled     uint64 `json:"canceled"`                // runs abandoned by their context before a result
	Errors       uint64 `json:"errors"`                  // misses whose simulation returned an error (never cached)
	Evictions    uint64 `json:"evictions,omitempty"`     // memory-cache entries evicted by the LRU bound (zero in a Tally)

	QueueWait time.Duration `json:"queue_wait_ns"` // cumulative worker-slot wait over misses
	SimWall   time.Duration `json:"sim_wall_ns"`   // cumulative simulation wall time over misses
	LeaseWait time.Duration `json:"lease_wait_ns"` // cumulative cross-process lease wait (peer hits, contended misses and lease cancels)
}

// add counts one finished request by its final provenance; it is the
// one place an outcome maps to counters. err is the request's error,
// counted only for a miss: a joiner shares its leader's error, and a
// cancellation is counted as Canceled. Runs is counted by the caller.
func (st *Stats) add(p Provenance, err error) {
	switch p.Outcome {
	case Miss:
		st.Misses++
		if err != nil {
			st.Errors++
		}
	case Hit:
		st.Hits++
	case Joined:
		st.Joins++
	case DiskHit:
		st.DiskHits++
	case PeerHit:
		st.PeerHits++
	case Canceled:
		st.Canceled++
	}
	st.QueueWait += p.QueueWait
	st.SimWall += p.SimWall
	st.LeaseWait += p.LeaseWait
}

// Observer receives run lifecycle callbacks from a scheduler: every
// DoProgress call announces itself once on entry (RunEnqueued), misses
// additionally report the start of simulation (RunStarted), and every
// call reports its outcome on exit (RunFinished). Executing runs
// additionally stream RunProgressed frames between RunStarted and
// RunFinished (throttled; see SetProgressInterval). Callbacks run on
// the requesting goroutine, outside the scheduler lock, so an observer
// may call Stats or Metrics — but must return quickly and must not call
// DoProgress. The id is unique per scheduler and strictly increasing in
// enqueue order; for one id the callbacks are ordered (enqueued
// happens-before started happens-before each progressed happens-before
// finished), while callbacks for different ids interleave arbitrarily.
// The telemetry hub is the canonical implementation.
type Observer interface {
	RunEnqueued(id uint64, key Key, label string)
	RunStarted(id uint64)
	RunProgressed(id uint64, p Progress)
	RunFinished(id uint64, p Provenance, err error)
}

// Tally accumulates per-caller provenance counts: a harness that wants
// to know how *its* requests were served — while sharing a scheduler
// with everyone else — records each call's Provenance into its own
// Tally, which counts it exactly as the scheduler does. All methods are
// safe for concurrent use; a nil *Tally ignores Record, so threading one
// through is optional at every level.
type Tally struct {
	mu sync.Mutex
	st Stats
}

// Record counts one served request.
func (t *Tally) Record(p Provenance, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.st.Runs++
	t.st.add(p, err)
	t.mu.Unlock()
}

// Stats snapshots the tally (Workers, CacheEntries and Evictions are
// zero: a tally sees one caller's slice of the scheduler, not the pool).
func (t *Tally) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// Tier is a persistent second-level result cache underneath the
// in-memory memo cache: Load is consulted on a memory miss before the
// run is queued for a worker, and Store is offered every successful
// cacheable result. Implementations must be safe for concurrent use,
// must treat stored values as immutable, and must never fail a run —
// a Tier that cannot serve or persist a value reports a miss / drops
// the write (and accounts for it itself). The store package's on-disk
// blob store is the canonical implementation; it keeps no values in
// memory, so the memo is the one in-memory result cache.
type Tier interface {
	// Load returns the value persisted under key, if a valid one exists.
	Load(key Key) (val any, ok bool)
	// Store persists a successful run's value under key (best effort).
	Store(key Key, val any)
}

// Locker coordinates cross-process singleflight over a shared persistent
// tier: before simulating a memory-and-disk miss, the scheduler claims
// the key's cross-process lease; losers retry it until it comes free
// and then serve the winner's result (Outcome PeerHit) instead of
// duplicating the simulation.
//
// TryLock must be non-blocking apart from local filesystem operations:
// ok=true hands the caller the exclusive right to simulate key (release
// MUST then be called exactly once, after the result has been offered to
// the tier); ok=false means another live process holds the lease right
// now. A crashed holder's lease must come free on its own (the store's
// is a kernel file lock, dropped when the holder dies). An
// implementation that cannot coordinate (no shared directory, degraded
// disk) must return a no-op release and ok=true: uncoordinated
// duplicate simulation is always safe, only wasteful, because tier blob
// writes are atomic and results are deterministic. The store package's
// blob store is the canonical implementation.
type Locker interface {
	TryLock(key Key) (release func(), ok bool)
}

// entry is one execution: in flight until done is closed, then an
// immutable (val, err) pair.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// Scheduler runs simulation closures through a bounded worker pool with
// content-keyed memoization and in-flight deduplication. All methods
// are safe for concurrent use.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast when a slot frees or the pool resizes

	workers int
	busy    int
	memo    bool

	cache    map[Key]*entry // completed, error-free runs
	inflight map[Key]*entry

	// LRU bookkeeping over cache: front = most recently used. cacheCap
	// 0 means unbounded (the pre-eviction behaviour).
	lru      *list.List
	lruPos   map[Key]*list.Element
	cacheCap int

	tier   Tier   // persistent second-level cache; nil when not attached
	locker Locker // cross-process singleflight; nil when not attached

	stats Stats
	seq   uint64 // next run id handed to the observer

	obs Observer // nil when no telemetry is attached

	// progressEvery is the minimum wall-clock gap between forwarded
	// progress frames per run, in nanoseconds (SetProgressInterval).
	progressEvery atomic.Int64

	queueHist *metrics.SyncHistogram // per-miss queue wait, seconds
	simHist   *metrics.SyncHistogram // per-miss simulation wall, seconds
}

// latencyBounds are the queue-wait/sim-wall histogram bucket upper
// bounds in seconds: sub-millisecond dispatch up through multi-second
// full-scale simulations, so /metrics exposes tail latency rather than
// only the cumulative totals the counters carry.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// New returns a scheduler bounding concurrent simulations to workers
// (<= 0 means GOMAXPROCS), with memoization enabled.
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		workers:  workers,
		memo:     true,
		cache:    make(map[Key]*entry),
		inflight: make(map[Key]*entry),
		lru:      list.New(),
		lruPos:   make(map[Key]*list.Element),

		queueHist: metrics.NewSyncHistogram("sched.queue_wait_seconds", latencyBounds),
		simHist:   metrics.NewSyncHistogram("sched.sim_wall_seconds", latencyBounds),
	}
	s.cond = sync.NewCond(&s.mu)
	s.progressEvery.Store(int64(DefaultProgressInterval))
	return s
}

// SetObserver attaches (or, with nil, detaches) a run lifecycle
// observer. Attach before submitting work: runs already in flight do
// not retroactively announce themselves.
func (s *Scheduler) SetObserver(o Observer) {
	s.mu.Lock()
	s.obs = o
	s.mu.Unlock()
}

// SetTier attaches (or, with nil, detaches) the persistent result tier.
// Attach before submitting work; values already cached in memory are
// not retroactively persisted. A tier that also implements Locker is
// attached as the cross-process lease coordinator in the same call, so
// N processes sharing one store directory never duplicate a simulation
// — SetLocker afterwards overrides that default.
func (s *Scheduler) SetTier(t Tier) {
	s.mu.Lock()
	s.tier = t
	if l, ok := t.(Locker); ok {
		s.locker = l
	} else {
		s.locker = nil
	}
	s.mu.Unlock()
}

// SetLocker attaches (or, with nil, detaches) the cross-process lease
// coordinator, overriding the one SetTier derived from the tier.
func (s *Scheduler) SetLocker(l Locker) {
	s.mu.Lock()
	s.locker = l
	s.mu.Unlock()
}

// peerPollInterval is how often a run that lost the cross-process
// lease retries it. Short enough that a peer hit adds little latency
// over the peer's own simulation wall; long enough that many waiters
// do not hammer the shared directory.
const peerPollInterval = 25 * time.Millisecond

// SetCacheCap bounds the in-memory memo cache to n completed runs,
// evicting least-recently-used entries beyond it (they remain
// retrievable from the persistent tier, if one is attached). n <= 0
// removes the bound.
func (s *Scheduler) SetCacheCap(n int) {
	s.mu.Lock()
	s.cacheCap = n
	s.evictOver()
	s.mu.Unlock()
}

// cacheInsert stores a completed entry and applies the LRU bound.
// Callers hold s.mu.
func (s *Scheduler) cacheInsert(key Key, e *entry) {
	if el, ok := s.lruPos[key]; ok {
		s.lru.MoveToFront(el)
		s.cache[key] = e
		return
	}
	s.cache[key] = e
	s.lruPos[key] = s.lru.PushFront(key)
	s.evictOver()
}

// cacheTouch marks key most recently used. Callers hold s.mu.
func (s *Scheduler) cacheTouch(key Key) {
	if el, ok := s.lruPos[key]; ok {
		s.lru.MoveToFront(el)
	}
}

// evictOver drops least-recently-used cache entries beyond cacheCap.
// Callers hold s.mu.
func (s *Scheduler) evictOver() {
	if s.cacheCap <= 0 {
		return
	}
	for len(s.cache) > s.cacheCap {
		el := s.lru.Back()
		if el == nil {
			return
		}
		key := el.Value.(Key)
		s.lru.Remove(el)
		delete(s.lruPos, key)
		delete(s.cache, key)
		s.stats.Evictions++
	}
}

var (
	globalOnce sync.Once
	global     *Scheduler
)

// Global returns the process-global scheduler shared by every
// experiment (created on first use, sized to GOMAXPROCS).
func Global() *Scheduler {
	globalOnce.Do(func() { global = New(0) })
	return global
}

// SetWorkers resizes the pool bound (<= 0 means GOMAXPROCS). Shrinking
// does not interrupt running simulations; the pool drains down to the
// new bound as they finish.
func (s *Scheduler) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.mu.Lock()
	s.workers = n
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Workers returns the current pool bound.
func (s *Scheduler) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// DisableMemo turns off the completed-run cache and in-flight
// deduplication: every DoProgress call executes its function (still
// through the bounded pool). The determinism tests use this as the
// unmemoized reference.
func (s *Scheduler) DisableMemo() {
	s.mu.Lock()
	s.memo = false
	s.mu.Unlock()
}

// Stats snapshots the cumulative counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Workers = s.workers
	st.CacheEntries = len(s.cache)
	return st
}

// Readings exports Stats in the metrics Reading shape for Prometheus
// exposition: the monotonic totals as counters, the pool size, cache
// size and hit rate as gauges, then the per-miss queue-wait and
// simulation-wall histograms. It is safe to call while runs are in
// flight.
func (s *Scheduler) Readings() []metrics.Reading {
	st := s.Stats()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	hitRate := 0.0
	if st.Runs > 0 {
		hitRate = float64(st.Hits+st.Joins+st.DiskHits+st.PeerHits) / float64(st.Runs)
	}
	return []metrics.Reading{
		{Name: "sched.workers", Kind: metrics.ReadGauge, Value: float64(st.Workers)},
		{Name: "sched.cache_entries", Kind: metrics.ReadGauge, Value: float64(st.CacheEntries)},
		{Name: "sched.runs", Kind: metrics.ReadCounter, Value: float64(st.Runs)},
		{Name: "sched.misses", Kind: metrics.ReadCounter, Value: float64(st.Misses)},
		{Name: "sched.hits", Kind: metrics.ReadCounter, Value: float64(st.Hits)},
		{Name: "sched.joins", Kind: metrics.ReadCounter, Value: float64(st.Joins)},
		{Name: "sched.disk_hits", Kind: metrics.ReadCounter, Value: float64(st.DiskHits)},
		{Name: "sched.peer_hits", Kind: metrics.ReadCounter, Value: float64(st.PeerHits)},
		{Name: "sched.canceled", Kind: metrics.ReadCounter, Value: float64(st.Canceled)},
		{Name: "sched.evictions", Kind: metrics.ReadCounter, Value: float64(st.Evictions)},
		{Name: "sched.errors", Kind: metrics.ReadCounter, Value: float64(st.Errors)},
		{Name: "sched.queue_wait_ms", Kind: metrics.ReadCounter, Value: ms(st.QueueWait)},
		{Name: "sched.sim_wall_ms", Kind: metrics.ReadCounter, Value: ms(st.SimWall)},
		{Name: "sched.lease_wait_ms", Kind: metrics.ReadCounter, Value: ms(st.LeaseWait)},
		{Name: "sched.hit_rate", Kind: metrics.ReadGauge, Value: hitRate},
		s.queueHist.Read(),
		s.simHist.Read(),
	}
}

// DoProgress runs fn through the worker pool, deduplicating and
// memoizing by key when cacheable is true; it is the scheduler's one
// entry point. The returned value is shared by every caller with the
// same key and must be treated as immutable. Errors propagate to all
// joined callers but are never cached — a later request with the same
// key retries. label is a short human-readable description
// ("sim/qsort/baseline") carried to the observer and shown in
// telemetry; it has no effect on scheduling or caching.
//
// ctx carries the request's deadline and cancellation: a request whose
// context expires while it waits for a worker slot, or while it is
// joined to an in-flight execution, returns ctx's error with Outcome
// Canceled instead of blocking forever. Cancellation of a joiner never
// disturbs the leader — the one execution keeps running and its result
// still lands in the cache. A leader canceled while queued resolves its
// entry with the cancellation error, which propagates to any joiners
// (a later request with the same key retries). fn itself is not
// interrupted once running; it watches ctx itself
// (pipeline.CPU.RunContext is the simulator's path).
//
// fn receives a report function for in-flight Progress snapshots; the
// scheduler throttles non-final frames to one per SetProgressInterval,
// stamps each forwarded frame (Progress.Stamp) with label, the
// completion, the wall-clock rate and an ETA derived from the frame's
// Target (the run's known dynamic-instruction budget, stamped by the
// body; 0 = unknown, frames then carry Pct -1 and no ETA), and fans it
// out to the attached Observer (RunProgressed) and to onProgress. With
// neither attached fn receives a nil report, so a silent run pays
// nothing. Frames are leader-only: hits, disk hits and joiners resolve
// without frames (their provenance says why). onProgress runs on the
// simulating goroutine and must return quickly.
//
// fn must not call DoProgress on the same scheduler (a saturated pool
// of parent runs waiting on child runs would deadlock).
func (s *Scheduler) DoProgress(ctx context.Context, key Key, label string, cacheable bool, onProgress ProgressFunc, fn func(report ProgressFunc) (any, error)) (any, Provenance, error) {
	start := time.Now()
	s.mu.Lock()
	s.stats.Runs++
	s.seq++
	id, obs := s.seq, s.obs
	if err := ctx.Err(); err != nil {
		// Dead on arrival: account for the request, touch nothing else.
		return s.finish(id, obs, label, true, nil, Provenance{Outcome: Canceled, Key: key}, err)
	}
	cacheable = cacheable && s.memo
	if cacheable {
		if e, ok := s.cache[key]; ok {
			s.cacheTouch(key)
			return s.finish(id, obs, label, true, e.val, Provenance{Outcome: Hit, Key: key}, nil)
		}
		if e, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			if obs != nil {
				obs.RunEnqueued(id, key, label)
			}
			select {
			case <-e.done:
				s.mu.Lock()
				return s.finish(id, obs, label, false, e.val, Provenance{Outcome: Joined, Key: key}, e.err)
			case <-ctx.Done():
				// Detach: the leader keeps running and will still
				// populate the cache; only this caller gives up.
				err := fmt.Errorf("sched: abandoned joined run %s: %w", key.Short(), ctx.Err())
				s.mu.Lock()
				return s.finish(id, obs, label, false, nil, Provenance{Outcome: Canceled, Key: key}, err)
			}
		}
	}
	e := &entry{done: make(chan struct{})}
	if cacheable {
		s.inflight[key] = e
	}
	tier := s.tier
	locker := s.locker
	// Announce before the tier probe and the slot wait so telemetry sees
	// the run queued, not just running. The in-flight entry is already
	// registered, so dedup keeps working while the lock is dropped.
	s.mu.Unlock()
	if obs != nil {
		obs.RunEnqueued(id, key, label)
	}

	// Persistent-tier probe: serving a previously computed run needs no
	// worker slot. A hit is promoted into the memo cache so repeats skip
	// the tier's disk read and decode.
	if cacheable && tier != nil {
		if v, ok := tier.Load(key); ok {
			return s.served(id, obs, key, e, v, Provenance{Outcome: DiskHit, Key: key})
		}
	}

	if done := ctx.Done(); done != nil {
		// The pool wait below sleeps on a sync.Cond; wake it when the
		// context expires so the cancellation check runs.
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	s.mu.Lock()
	for s.busy >= s.workers && ctx.Err() == nil {
		s.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		// Canceled while queued: resolve the entry with the error so
		// joiners unblock (they see the error and may retry later).
		if cacheable {
			delete(s.inflight, key)
		}
		e.err = fmt.Errorf("sched: run %s canceled while queued: %w", key.Short(), err)
		close(e.done)
		return s.finish(id, obs, label, false, nil, Provenance{Outcome: Canceled, Key: key}, e.err)
	}
	s.busy++
	queueWait := time.Since(start)
	s.mu.Unlock()

	// Cross-process singleflight: claim the key's lease once holding a
	// worker slot, so only simulating runs hold leases. Losing means a
	// live peer is simulating this key: keep the slot and retry until
	// the lease comes free (the cross-process analogue of joining). The
	// holder releases only after storing its result, so the double-check
	// below then serves the peer's blob; a holder that died or stored
	// nothing leaves this call an ordinary miss.
	var release func() // non-nil once the lease is held
	var leaseWait time.Duration
	if cacheable && locker != nil {
		leaseStart := time.Now()
		for {
			if r, ok := locker.TryLock(key); ok {
				leaseWait = time.Since(leaseStart)
				// Double-check: a peer may have stored its blob and
				// released its lease since the probe above. Serve that
				// blob rather than simulate the key a second time.
				if tier != nil {
					if v, ok := tier.Load(key); ok {
						r()
						return s.served(id, obs, key, e, v, Provenance{Outcome: PeerHit, Key: key, LeaseWait: leaseWait})
					}
				}
				release = r
				break
			}
			select {
			case <-ctx.Done():
				// Same contract as cancellation while queued: resolve the
				// entry with the error so in-process joiners unblock and a
				// later request retries.
				p := Provenance{Outcome: Canceled, Key: key, LeaseWait: time.Since(leaseStart)}
				e.err = fmt.Errorf("sched: run %s canceled waiting on a peer's lease: %w", key.Short(), ctx.Err())
				s.mu.Lock()
				s.busy--
				s.cond.Broadcast()
				delete(s.inflight, key)
				close(e.done)
				return s.finish(id, obs, label, false, nil, p, e.err)
			case <-time.After(peerPollInterval):
			}
		}
	}

	s.queueHist.Observe(queueWait.Seconds())
	if obs != nil {
		obs.RunStarted(id)
	}

	simStart := time.Now()
	var report ProgressFunc
	if obs != nil || onProgress != nil {
		report = s.reporter(id, label, obs, onProgress, simStart)
	}
	e.val, e.err = fn(report)
	simWall := time.Since(simStart)
	s.simHist.Observe(simWall.Seconds())
	p := Provenance{Outcome: Miss, Key: key, QueueWait: queueWait, SimWall: simWall, LeaseWait: leaseWait}

	s.mu.Lock()
	s.busy--
	s.stats.add(p, e.err)
	if cacheable {
		delete(s.inflight, key)
		if e.err == nil {
			s.cacheInsert(key, e)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	close(e.done)
	if cacheable && e.err == nil && tier != nil {
		// Persist outside the lock; the tier absorbs its own failures.
		tier.Store(key, e.val)
	}
	if release != nil {
		// Release only after the result was offered to the tier: a lease
		// waiter that sees the lease vanish must find the blob (or learn,
		// by winning the lease, that it has to simulate — the store path
		// failed or the run errored).
		release()
	}
	if obs != nil {
		obs.RunFinished(id, p, e.err)
	}
	return e.val, p, e.err
}

// finish ends a request that did not simulate: it counts the outcome,
// releases s.mu (which the caller holds) and reports to the observer.
// announce is set for a request that resolved before it was announced
// (dead on arrival, or a hit), so RunEnqueued still precedes
// RunFinished.
func (s *Scheduler) finish(id uint64, obs Observer, label string, announce bool, v any, p Provenance, err error) (any, Provenance, error) {
	s.stats.add(p, err)
	s.mu.Unlock()
	if obs != nil {
		if announce {
			obs.RunEnqueued(id, p.Key, label)
		}
		obs.RunFinished(id, p, err)
	}
	return v, p, err
}

// served resolves e with v, a result found in the persistent tier
// (Outcome DiskHit, or PeerHit when another process produced it), and
// finishes the call: the value is promoted into the memory cache so
// repeats stay cheap, and no simulation runs.
func (s *Scheduler) served(id uint64, obs Observer, key Key, e *entry, v any, p Provenance) (any, Provenance, error) {
	e.val = v
	s.mu.Lock()
	delete(s.inflight, key)
	s.cacheInsert(key, e)
	if p.Outcome == PeerHit {
		s.busy-- // the lease was claimed holding a worker slot
		s.cond.Broadcast()
	}
	close(e.done)
	return s.finish(id, obs, "", false, v, p, nil)
}

// ForEach invokes fn(i) for every i in [0, n) on its own goroutine and
// returns the lowest-index error, if any. It imposes no concurrency
// bound of its own — callbacks submit their work through a scheduler,
// whose pool is the bound. This is the experiments' fan-out primitive;
// results land in caller-owned slices indexed by i, so output order is
// deterministic regardless of completion order.
func ForEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
