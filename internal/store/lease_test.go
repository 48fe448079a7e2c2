package store

import (
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// entries counts the files and directories under the store root.
func entries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(string, fs.DirEntry, error) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLeaseAcquireAndRelease(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	defer s.Close()
	peer := open(t, dir)
	defer peer.Close()

	release, ok := s.TryLock(key(1))
	if !ok {
		t.Fatal("TryLock on a fresh key: denied, want granted")
	}
	release()
	release() // idempotent: callers route through sync.Once anyway, but double-release must be safe
	rel, ok := peer.TryLock(key(1))
	if !ok {
		t.Fatal("peer TryLock after release: denied, want granted")
	}
	rel()
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

	// A lock file that outlived every holder, as one killed mid-claim
	// leaves it, with stray bytes in it: the kernel dropped the holder's
	// lock, so the next claim must win at once.
	if err := os.WriteFile(filepath.Join(s.Stats().Dir, leaseFile), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	release, ok := s.TryLock(key(4))
	if !ok {
		t.Fatal("TryLock over a dead holder's leftover file denied")
	}
	release()
}

// TestLeaseClaimsCreateNoFiles: the first claim creates the one lock
// file; 99 more leases held at once on other keys, and their releases,
// add no directory entries.
func TestLeaseClaimsCreateNoFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	defer s.Close()

	var releases []func()
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	var want int
	for i := 0; i < 100; i++ {
		release, ok := s.TryLock(key(byte(i)))
		if !ok {
			t.Fatalf("TryLock on key %d denied", i)
		}
		releases = append(releases, release)
		if i == 0 {
			want = entries(t, dir)
		}
	}
	if got := entries(t, dir); got != want {
		t.Errorf("store holds %d entries with 100 leases held, %d with the first", got, want)
	}
	for _, r := range releases {
		r()
	}
	if got := entries(t, dir); got != want {
		t.Errorf("store holds %d entries after 100 releases, %d after the first claim", got, want)
	}
}

// TestLeaseReleaseKeepsOtherLeases: releasing one of a handle's leases
// leaves the others held. A POSIX record lock would fail this, as
// closing any descriptor drops all of the process's locks on the file.
func TestLeaseReleaseKeepsOtherLeases(t *testing.T) {
	dir := t.TempDir()
	holder := open(t, dir)
	defer holder.Close()
	peer := open(t, dir)
	defer peer.Close()

	releaseA, okA := holder.TryLock(key(5))
	releaseB, okB := holder.TryLock(key(6))
	if !okA || !okB {
		t.Fatal("holder TryLock denied")
	}
	defer releaseB()
	releaseA()
	if rel, ok := peer.TryLock(key(6)); ok {
		rel()
		t.Fatal("peer TryLock granted on a lease the holder still holds")
	}
	if rel, ok := peer.TryLock(key(5)); !ok {
		t.Error("peer TryLock on the released lease denied")
	} else {
		rel()
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
