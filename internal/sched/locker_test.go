package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeLocker scripts the cross-process lease: deny the first `denials`
// TryLock calls (a live peer holds the lease), then grant, recording
// every event into an optional shared log.
type fakeLocker struct {
	mu       sync.Mutex
	denials  int
	tries    int
	released atomic.Int32
	events   []string
}

func (l *fakeLocker) TryLock(key Key) (func(), bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tries++
	if l.tries <= l.denials {
		return nil, false
	}
	l.events = append(l.events, "acquire")
	return func() {
		l.released.Add(1)
		l.mu.Lock()
		l.events = append(l.events, "release")
		l.mu.Unlock()
	}, true
}

// lockingTier is a Tier that also coordinates cross-process leases —
// the shape store.Store has — logging Store calls into the locker's
// event stream so ordering is checkable.
type lockingTier struct {
	*fakeTier
	*fakeLocker
}

func (lt *lockingTier) Store(key Key, val any) {
	lt.fakeLocker.mu.Lock()
	lt.fakeLocker.events = append(lt.fakeLocker.events, "store")
	lt.fakeLocker.mu.Unlock()
	lt.fakeTier.Store(key, val)
}

func newLockingTier(denials int) *lockingTier {
	return &lockingTier{fakeTier: newFakeTier(), fakeLocker: &fakeLocker{denials: denials}}
}

// peerTier is a locking tier whose every lease a live peer holds until
// the key's blob lands: the peer stores its result, then releases.
type peerTier struct{ *fakeTier }

func (pt peerTier) TryLock(key Key) (func(), bool) {
	pt.fakeTier.mu.Lock()
	defer pt.fakeTier.mu.Unlock()
	_, landed := pt.fakeTier.m[key]
	return func() {}, landed
}

func TestSetTierAutoDetectsLockerAndPeerHit(t *testing.T) {
	// The tier implements Locker, so SetTier alone must wire the
	// cross-process path: with the lease denied (live peer), the lease
	// coming free after the peer's blob landed must be served as a
	// PeerHit without simulating.
	pt := peerTier{newFakeTier()}
	key := KeyOf("peer-owned")

	s := New(2)
	s.SetTier(pt)

	go func() {
		time.Sleep(10 * time.Millisecond)
		pt.fakeTier.Store(key, "peer-result") // the peer finishes: blob lands
	}()
	v, prov, err := do(s, key, "", true, func() (any, error) {
		t.Error("simulated despite a live peer's lease")
		return nil, nil
	})
	if err != nil || v.(string) != "peer-result" || prov.Outcome != PeerHit {
		t.Fatalf("peer hit: v=%v prov=%+v err=%v", v, prov, err)
	}
	if prov.LeaseWait <= 0 {
		t.Errorf("PeerHit LeaseWait = %v, want > 0", prov.LeaseWait)
	}
	st := s.Stats()
	if st.PeerHits != 1 || st.Misses != 0 || st.LeaseWait <= 0 {
		t.Errorf("stats = %+v, want 1 peer hit, 0 misses, LeaseWait > 0", st)
	}
	// Promoted into the memory cache: a repeat is a plain hit.
	if _, prov, _ := do(s, key, "", true, func() (any, error) { return nil, nil }); prov.Outcome != Hit {
		t.Errorf("repeat after peer hit: outcome %v, want Hit", prov.Outcome)
	}
}

func TestLockerTakeoverBecomesMissWithLeaseWait(t *testing.T) {
	// The holder dies: TryLock denies a few times (live holder), then
	// grants (its lock died with it). No blob ever lands, so this process
	// must simulate — an ordinary miss that carries the wait.
	lt := newLockingTier(3)
	s := New(2)
	s.SetTier(lt)

	ran := 0
	v, prov, err := do(s, KeyOf("orphaned"), "", true, func() (any, error) {
		ran++
		return "simulated-here", nil
	})
	if err != nil || v.(string) != "simulated-here" || prov.Outcome != Miss || ran != 1 {
		t.Fatalf("takeover miss: v=%v prov=%+v err=%v ran=%d", v, prov, err, ran)
	}
	if prov.LeaseWait <= 0 {
		t.Errorf("contended miss LeaseWait = %v, want > 0", prov.LeaseWait)
	}
	if st := s.Stats(); st.Misses != 1 || st.LeaseWait <= 0 {
		t.Errorf("stats = %+v, want 1 miss with LeaseWait > 0", st)
	}
	if got := lt.released.Load(); got != 1 {
		t.Errorf("release called %d times, want exactly 1", got)
	}
}

// racingTier replays the lease double-check race deterministically: a
// peer stores its blob and releases its lease after this process's tier
// probe missed but before its TryLock, so the lease is granted with the
// result already in the tier.
type racingTier struct {
	*fakeTier
	released atomic.Int32
}

func (rt *racingTier) TryLock(key Key) (func(), bool) {
	rt.fakeTier.Store(key, "peer-result") // the peer finishes first
	return func() { rt.released.Add(1) }, true
}

func TestLeaseWinnerServesPeerBlob(t *testing.T) {
	rt := &racingTier{fakeTier: newFakeTier()}
	key := KeyOf("raced")
	s := New(2)
	s.SetTier(rt)

	v, prov, err := do(s, key, "", true, func() (any, error) {
		t.Error("simulated a key whose blob landed before the lease was won")
		return "simulated-here", nil
	})
	if err != nil || v.(string) != "peer-result" || prov.Outcome != PeerHit {
		t.Fatalf("raced lease: v=%v prov=%+v err=%v, want the peer's blob as PeerHit", v, prov, err)
	}
	if got := rt.released.Load(); got != 1 {
		t.Errorf("release called %d times, want exactly 1", got)
	}
	if st := s.Stats(); st.PeerHits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 1 peer hit, 0 misses", st)
	}
	if rt.fakeTier.stores != 1 {
		t.Errorf("tier stored %d blobs, want only the peer's", rt.fakeTier.stores)
	}
}

func TestLockerReleaseAfterTierStore(t *testing.T) {
	// The lease must outlive the blob write: a waiter that sees the
	// lease vanish has to find the result. Event order is therefore
	// acquire → store → release.
	lt := newLockingTier(0)
	s := New(2)
	s.SetTier(lt)

	if _, _, err := do(s, KeyOf("ordered"), "", true, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	lt.fakeLocker.mu.Lock()
	events := append([]string(nil), lt.fakeLocker.events...)
	lt.fakeLocker.mu.Unlock()
	want := []string{"acquire", "store", "release"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestLockerReleasedOnSimulationError(t *testing.T) {
	// An errored run stores nothing but must still drop the lease so a
	// waiting peer can take over and retry.
	lt := newLockingTier(0)
	s := New(2)
	s.SetTier(lt)

	if _, _, err := do(s, KeyOf("failing"), "", true, func() (any, error) {
		return nil, context.DeadlineExceeded
	}); err == nil {
		t.Fatal("want simulation error")
	}
	if got := lt.released.Load(); got != 1 {
		t.Errorf("release called %d times, want exactly 1", got)
	}
	if lt.fakeTier.stores != 0 {
		t.Errorf("errored run stored %d blobs, want 0", lt.fakeTier.stores)
	}
}

func TestLockerCancelWhileWaitingOnPeer(t *testing.T) {
	lt := newLockingTier(1 << 30) // never grant, no blob ever lands
	s := New(2)
	s.SetTier(lt)

	ctx, cancel := context.WithCancel(context.Background())
	key := KeyOf("abandoned")

	// A joiner on the same key must be resolved by the leader's
	// cancellation, not hang.
	var wg sync.WaitGroup
	leaderIn := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(leaderIn)
		_, prov, err := doCtx(ctx, s, key, "", true, func() (any, error) {
			t.Error("simulated while a peer held the lease")
			return nil, nil
		})
		if err == nil || prov.Outcome != Canceled {
			t.Errorf("leader: prov=%+v err=%v, want Canceled", prov, err)
		}
		if prov.LeaseWait <= 0 {
			t.Errorf("canceled lease wait = %v, want > 0", prov.LeaseWait)
		}
	}()
	<-leaderIn
	time.Sleep(5 * time.Millisecond) // let the leader enter the lease wait
	cancel()
	wg.Wait()

	if st := s.Stats(); st.Canceled == 0 {
		t.Errorf("stats = %+v, want Canceled > 0", st)
	}
}

func TestUncacheableRunSkipsLocker(t *testing.T) {
	lt := newLockingTier(0)
	s := New(2)
	s.SetTier(lt)
	if _, _, err := do(s, KeyOf("raw"), "", false, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	lt.fakeLocker.mu.Lock()
	tries := lt.fakeLocker.tries
	lt.fakeLocker.mu.Unlock()
	if tries != 0 {
		t.Errorf("uncacheable run tried the lease %d times, want 0", tries)
	}
}

func TestSetLockerOverridesAndClears(t *testing.T) {
	// A plain tier (no Locker) must leave the lease path disengaged even
	// after a locking tier was attached before it.
	lt := newLockingTier(0)
	s := New(2)
	s.SetTier(lt)
	plain := newFakeTier()
	s.SetTier(plain)
	if _, _, err := do(s, KeyOf("plain"), "", true, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	lt.fakeLocker.mu.Lock()
	tries := lt.fakeLocker.tries
	lt.fakeLocker.mu.Unlock()
	if tries != 0 {
		t.Errorf("lease consulted %d times after a plain tier replaced the locking one", tries)
	}

	// And SetLocker wires coordination separate from the tier.
	s.SetLocker(lt.fakeLocker)
	if _, _, err := do(s, KeyOf("separate"), "", true, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if lt.released.Load() != 1 {
		t.Error("explicit SetLocker did not engage the lease path")
	}
}

// memLocker is an in-memory cross-process lease table: schedulers that
// share one stand in for processes sharing a store.
type memLocker struct {
	mu   sync.Mutex
	held map[Key]bool
}

func (l *memLocker) TryLock(key Key) (func(), bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held[key] {
		return nil, false
	}
	l.held[key] = true
	return func() {
		l.mu.Lock()
		delete(l.held, key)
		l.mu.Unlock()
	}, true
}

func TestQueuedRunsHoldNoLease(t *testing.T) {
	// Peer A has one worker: its first run stalls inside the body and
	// its other five queue behind it. A lease is claimed only once a run
	// holds a worker slot, so A holds one lease, and peer B, with two
	// idle workers, simulates the five queued keys instead of waiting on
	// them.
	locker := &memLocker{held: map[Key]bool{}}
	a, b := New(1), New(2)
	a.SetLocker(locker)
	b.SetLocker(locker)
	keys := make([]Key, 6)
	for i := range keys {
		keys[i] = KeyOf("queued-lease", i)
	}

	stalled, unstall := make(chan struct{}), make(chan struct{})
	var aRuns sync.WaitGroup
	for i, key := range keys {
		aRuns.Add(1)
		go func() {
			defer aRuns.Done()
			do(a, key, "", true, func() (any, error) { //nolint:errcheck
				if i == 0 {
					close(stalled)
					<-unstall
				}
				return i, nil
			})
		}()
		if i == 0 {
			<-stalled
		}
	}
	defer aRuns.Wait()
	defer close(unstall)
	for a.Stats().Runs < uint64(len(keys)) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the queued runs settle into their wait

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var canceled atomic.Int32
	err := ForEach(len(keys), func(i int) error {
		_, prov, _ := doCtx(ctx, b, keys[i], "", true, func() (any, error) { return i, nil })
		if prov.Outcome == Canceled {
			canceled.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := canceled.Load(); n > 1 {
		t.Errorf("%d of B's %d runs were canceled waiting on A's leases, want at most 1 (A simulates one key)", n, len(keys))
	}
}
