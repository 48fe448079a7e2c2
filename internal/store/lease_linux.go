package store

import (
	"io"
	"sync"
	"syscall"
)

// fOFDSetLK is F_OFD_SETLK, 37 on every Linux architecture; package
// syscall predates it.
const fOFDSetLK = 37

// lockByte opens path on a descriptor of its own and takes an
// open-file-description write lock on its byte at off without
// blocking: errLeaseHeld when another descriptor holds it. Unlike a
// POSIX record lock, closing some other descriptor of this process
// leaves the lock in place. release closes the descriptor.
func lockByte(path string, off int64) (release func(), err error) {
	var fd int
	for {
		fd, err = syscall.Open(path, syscall.O_RDWR|syscall.O_CREAT|syscall.O_CLOEXEC, 0o644)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	lk := syscall.Flock_t{Type: syscall.F_WRLCK, Whence: io.SeekStart, Start: off, Len: 1}
	if err := syscall.FcntlFlock(uintptr(fd), fOFDSetLK, &lk); err != nil {
		syscall.Close(fd)
		if err == syscall.EAGAIN || err == syscall.EACCES {
			return nil, errLeaseHeld
		}
		return nil, err
	}
	return sync.OnceFunc(func() { syscall.Close(fd) }), nil
}
