// Cross-process singleflight leases.
//
// N processes sharing one store directory must not duplicate a
// simulation. Duplication wastes work but never corrupts (blob writes
// are atomic), so a store that cannot coordinate (degraded, or the
// platform or filesystem refuses the lock) grants every claim.
//
// A lease is an exclusive flock on leases/<key>.lease, which the kernel
// frees when its holder exits, however it exits. Release unlinks the
// path while still holding the lock. A peer that opened the path just
// before the unlink can lock the dead inode afterwards, so a claim
// checks that the path still names the inode it locked, else retries.
// The scheduler releases only after offering the result to the tier,
// so a free lease means the blob has landed or the holder is gone.
package store

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sync"

	"carf/internal/sched"
)

// lockLease's failures: a peer holds the lock, or a holder's release
// unlinked the path between our open and our lock.
var (
	errLeaseHeld = errors.New("lease held by a peer")
	errLeaseGone = errors.New("lease file unlinked")
)

// TryLock implements sched.Locker: claim key's cross-process lease
// without blocking. ok=false means a live peer holds it; ok=true grants
// the right to simulate until release, which is safe to call twice.
func (s *Store) TryLock(key sched.Key) (release func(), ok bool) {
	s.mu.Lock()
	ldir := s.leaseDir
	s.mu.Unlock()
	if ldir == "" { // degraded to memory-only
		return func() {}, true
	}
	path := filepath.Join(ldir, hex.EncodeToString(key[:])+".lease")

	// Each retry follows a holder's release racing our claim.
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		var f *os.File
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644); err == nil {
			err = lockLease(f, path)
		}
		if err == nil {
			s.count(func(st *Stats) { st.LeasesAcquired++ })
			return sync.OnceFunc(func() { os.Remove(path); f.Close() }), true
		}
		f.Close() // nil-safe: the open itself may have failed
		if err == errLeaseHeld {
			s.count(func(st *Stats) { st.LeaseLosses++ })
			return nil, false
		}
		if err != errLeaseGone {
			break
		}
	}
	// The leases directory is gone or unwritable, the lock is refused, or
	// claims and releases churned past the retry budget. Same posture as
	// every other disk fault on this path: log and run uncoordinated.
	s.log.Warn("store: lease claim failed; proceeding without cross-process coordination",
		"lease", filepath.Base(path), "err", err)
	return func() {}, true
}

// lockLease locks f, a descriptor opened on path, and checks that path
// still names the locked inode: errLeaseGone when it does not.
func lockLease(f *os.File, path string) error {
	if err := lockFile(f.Fd()); err != nil {
		return err
	}
	locked, ferr := f.Stat()
	cur, perr := os.Stat(path)
	if ferr != nil || perr != nil || !os.SameFile(locked, cur) {
		return errLeaseGone
	}
	return nil
}
