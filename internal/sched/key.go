package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
)

// Key is a content digest identifying one simulation request. Two
// requests with equal keys must be guaranteed to produce identical
// results (the simulator is deterministic, so a key covering every
// result-affecting input is sufficient).
type Key [sha256.Size]byte

// Short returns the first 8 hex digits of the key — the correlation id
// used in telemetry output (span attributes, /runs rows, log fields).
// Short ids are for humans; full keys stay the cache identity.
func (k Key) Short() string { return hex.EncodeToString(k[:4]) }

// KeyOf digests the given parts into a Key. Callers must include
// everything the run's result depends on: kernel name, workload scale,
// model spec identity, pipeline configuration, and any
// sampler/checker/injection knobs.
//
// Each part is encoded canonically, as its type name followed by its
// value: scalars fixed-width little-endian, strings and slices
// length-prefixed, arrays element by element, and struct fields in
// declaration order, unexported ones included. Any field added to a
// keyed struct therefore changes the digest. Pointers, maps, funcs,
// chans and interfaces have no value encoding that is stable across
// processes (addresses differ, map order is random), so KeyOf panics
// naming the offending type the first time such a field is keyed.
func KeyOf(parts ...any) Key {
	var buf [1024]byte
	b := buf[:0]
	for _, p := range parts {
		v := reflect.ValueOf(p)
		if !v.IsValid() {
			panic("sched.KeyOf: nil part has no type to key")
		}
		b = appendString(b, v.Type().String())
		b = appendValue(b, v, v.Type())
	}
	return sha256.Sum256(b)
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// appendValue appends the canonical encoding of v, a value inside the
// key part of type part (named in the panic for an unencodable kind).
func appendValue(b []byte, v reflect.Value, part reflect.Type) []byte {
	le := binary.LittleEndian
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int8:
		return append(b, byte(v.Int()))
	case reflect.Uint8:
		return append(b, byte(v.Uint()))
	case reflect.Int16:
		return le.AppendUint16(b, uint16(v.Int()))
	case reflect.Uint16:
		return le.AppendUint16(b, uint16(v.Uint()))
	case reflect.Int32:
		return le.AppendUint32(b, uint32(v.Int()))
	case reflect.Uint32:
		return le.AppendUint32(b, uint32(v.Uint()))
	case reflect.Int, reflect.Int64:
		return le.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint64, reflect.Uintptr:
		return le.AppendUint64(b, v.Uint())
	case reflect.Float32:
		return le.AppendUint32(b, math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		return le.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		b = le.AppendUint64(b, math.Float64bits(real(c)))
		return le.AppendUint64(b, math.Float64bits(imag(c)))
	case reflect.String:
		return appendString(b, v.String())
	case reflect.Slice:
		b = le.AppendUint64(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i, n := 0, v.Len(); i < n; i++ {
			b = appendValue(b, v.Index(i), part)
		}
		return b
	case reflect.Struct:
		for i, n := 0, v.NumField(); i < n; i++ {
			b = appendValue(b, v.Field(i), part)
		}
		return b
	}
	panic("sched.KeyOf: cannot key " + v.Type().String() + " in part of type " + part.String() +
		": pointer, map, func, chan and interface values have no stable encoding")
}
