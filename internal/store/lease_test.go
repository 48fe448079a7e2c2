package store

import (
	"os"
	"path/filepath"
	"testing"
)

// leaseFiles globs the store directory's lease files.
func leaseFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "schema-*", "leases", "*.lease"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func TestLeaseAcquireAndRelease(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	defer s.Close()

	release, ok := s.TryLock(key(1))
	if !ok {
		t.Fatal("TryLock on a fresh key: denied, want granted")
	}
	if got := leaseFiles(t, dir); len(got) != 1 {
		t.Fatalf("lease files while held = %v, want exactly 1", got)
	}
	release()
	release() // idempotent: callers route through sync.Once anyway, but double-release must be safe
	if got := leaseFiles(t, dir); len(got) != 0 {
		t.Fatalf("lease files after release = %v, want none", got)
	}
	if st := s.Stats(); st.LeasesAcquired != 1 || st.LeaseLosses != 0 {
		t.Errorf("stats = %+v, want 1 acquired, 0 losses", st)
	}
}

func TestLeaseLossWhileHeld(t *testing.T) {
	dir := t.TempDir()
	holder := open(t, dir)
	defer holder.Close()
	peer := open(t, dir)
	defer peer.Close()

	release, ok := holder.TryLock(key(2))
	if !ok {
		t.Fatal("holder TryLock denied")
	}
	defer release()

	if _, ok := peer.TryLock(key(2)); ok {
		t.Fatal("peer TryLock granted while a live holder holds the lock")
	}
	if st := peer.Stats(); st.LeaseLosses != 1 {
		t.Errorf("peer stats = %+v, want 1 lease loss", st)
	}
	// A different key is independent.
	if rel, ok := peer.TryLock(key(3)); !ok {
		t.Error("peer TryLock on an unrelated key denied")
	} else {
		rel()
	}
}

func TestLeftoverLeaseFileIsFree(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	defer s.Close()

	// Learn the key's lease path, then leave a file there unlocked, as a
	// holder killed before its release does: the kernel dropped its lock,
	// so the next claim must win at once.
	release, ok := s.TryLock(key(4))
	if !ok {
		t.Fatal("setup TryLock denied")
	}
	files := leaseFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("lease files = %v, want exactly 1", files)
	}
	release()
	if err := os.WriteFile(files[0], nil, 0o644); err != nil {
		t.Fatal(err)
	}

	release, ok = s.TryLock(key(4))
	if !ok {
		t.Fatal("TryLock over a dead holder's leftover file denied")
	}
	release()
	if got := leaseFiles(t, dir); len(got) != 0 {
		t.Errorf("lease files after release = %v, want none", got)
	}
}

func TestLeaseClaimRechecksInode(t *testing.T) {
	dir := t.TempDir()
	a, b, c := open(t, dir), open(t, dir), open(t, dir)
	defer a.Close()
	defer b.Close()
	defer c.Close()

	releaseA, ok := a.TryLock(key(5))
	if !ok {
		t.Fatal("A: TryLock denied")
	}
	files := leaseFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("lease files = %v, want exactly 1", files)
	}
	path := files[0]
	// B opens the path while A still holds it, and is descheduled before
	// taking the lock.
	fb, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	releaseA() // unlinks the inode B holds open
	releaseC, ok := c.TryLock(key(5))
	if !ok {
		t.Fatal("C: TryLock after A's release denied")
	}
	defer releaseC()

	// B's flock on the dead inode succeeds, but C holds the live lease:
	// B must see that the path moved on rather than win a second lease.
	if err := lockLease(fb, path); err != errLeaseGone {
		t.Fatalf("B: lockLease on the unlinked inode = %v, want errLeaseGone", err)
	}
	if _, ok := b.TryLock(key(5)); ok {
		t.Fatal("B: TryLock granted while C holds the lease")
	}
}

func TestMemoryOnlyStoreGrantsUncoordinated(t *testing.T) {
	s := degraded(t)
	defer s.Close()
	r1, ok1 := s.TryLock(key(7))
	r2, ok2 := s.TryLock(key(7))
	if !ok1 || !ok2 {
		t.Fatal("memory-only TryLock denied; must grant uncoordinated claims")
	}
	r1()
	r2()
	if st := s.Stats(); st.LeasesAcquired != 0 {
		t.Errorf("stats = %+v, want no coordination counters on a memory-only store", st)
	}
}

func TestLeaseReadingsExported(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	defer s.Close()
	rel, ok := s.TryLock(key(8))
	if !ok {
		t.Fatal("TryLock denied")
	}
	rel()
	want := map[string]float64{
		"store.leases_acquired_total": 1,
		"store.lease_losses_total":    0,
	}
	for _, r := range s.Readings() {
		if v, exists := want[r.Name]; exists {
			if r.Value != v {
				t.Errorf("%s = %v, want %v", r.Name, r.Value, v)
			}
			delete(want, r.Name)
		}
	}
	for name := range want {
		t.Errorf("reading %s not exported", name)
	}
}
