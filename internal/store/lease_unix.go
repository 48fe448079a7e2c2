//go:build unix && !aix && !solaris

package store

import "syscall"

// lockFile takes an exclusive flock on fd without blocking.
func lockFile(fd uintptr) error {
	err := syscall.Flock(int(fd), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return errLeaseHeld
	}
	return err
}
