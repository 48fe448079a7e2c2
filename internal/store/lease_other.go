//go:build !unix || aix || solaris

package store

import "errors"

// lockFile cannot coordinate on this platform: claims run uncoordinated.
func lockFile(uintptr) error { return errors.ErrUnsupported }
