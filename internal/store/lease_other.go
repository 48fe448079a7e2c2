//go:build !linux

package store

import "errors"

// lockByte cannot coordinate without open-file-description locks:
// claims run uncoordinated.
func lockByte(string, int64) (func(), error) { return nil, errors.ErrUnsupported }
