// Cross-process singleflight leases.
//
// N processes sharing one store directory must not duplicate a
// simulation. Duplication wastes work but never corrupts (blob writes
// are atomic), so a store that cannot coordinate (degraded, or the
// platform or filesystem refuses the lock) grants every claim.
//
// A lease is a kernel write lock on one byte of the store's single
// leases.lock file, at an offset derived from the key. The lock belongs
// to the descriptor the claim opened, so two claims conflict even from
// one process; the kernel frees it when the descriptor closes (release)
// or its holder exits, however it exits. The file is never unlinked,
// and a claim creates nothing once it exists.
// The scheduler releases only after offering the result to the tier,
// so a free lease means the blob has landed or the holder is gone.
package store

import (
	"encoding/binary"
	"errors"

	"carf/internal/sched"
)

// leaseFile names the lock file under the schema directory.
const leaseFile = "leases.lock"

// errLeaseHeld is lockByte's failure when a peer holds the byte.
var errLeaseHeld = errors.New("lease held by a peer")

// TryLock implements sched.Locker: claim key's cross-process lease
// without blocking. ok=false means a live peer holds it; ok=true grants
// the right to simulate until release, which is safe to call twice.
func (s *Store) TryLock(key sched.Key) (release func(), ok bool) {
	s.mu.Lock()
	path := s.leasePath
	s.mu.Unlock()
	if path == "" { // degraded to memory-only
		return func() {}, true
	}
	// Shifted right by one, the offset is a non-negative int64.
	release, err := lockByte(path, int64(binary.BigEndian.Uint64(key[:8])>>1))
	switch err {
	case nil:
		s.count(func(st *Stats) { st.LeasesAcquired++ })
		return release, true
	case errLeaseHeld:
		s.count(func(st *Stats) { st.LeaseLosses++ })
		return nil, false
	}
	// The lock file cannot be opened, or the platform or filesystem
	// refuses the lock. Same posture as every other disk fault on this
	// path: log and run uncoordinated.
	s.log.Warn("store: lease claim failed; proceeding without cross-process coordination",
		"key", key.Short(), "err", err)
	return func() {}, true
}
