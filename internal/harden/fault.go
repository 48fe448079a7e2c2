package harden

import "fmt"

// FaultClass names one injectable hardware fault model.
type FaultClass uint8

const (
	// FaultSimpleBit flips one bit in a written Simple entry's Value
	// field (low bits, short pointer, or long pointer alike).
	FaultSimpleBit FaultClass = iota
	// FaultShortBit flips one bit in a live Short entry's shared
	// high-order bits, corrupting every value in the similarity group.
	FaultShortBit
	// FaultLongBit flips one bit in an allocated Long entry's stored
	// high part.
	FaultLongBit
	// FaultFreeList pushes an in-use rename tag back onto the free
	// list, so a later allocation aliases two logical registers.
	FaultFreeList
	// FaultRefClear makes one Short entry's Tarch reference bit stick:
	// the §3.2 interval clear is dropped, so the entry can never be
	// reclaimed (a slow leak rather than a value corruption).
	FaultRefClear

	numFaultClasses
)

// FaultClasses lists every injectable class.
func FaultClasses() []FaultClass {
	out := make([]FaultClass, numFaultClasses)
	for i := range out {
		out[i] = FaultClass(i)
	}
	return out
}

// String implements fmt.Stringer.
func (c FaultClass) String() string {
	switch c {
	case FaultSimpleBit:
		return "simple-bit"
	case FaultShortBit:
		return "short-bit"
	case FaultLongBit:
		return "long-bit"
	case FaultFreeList:
		return "free-list"
	case FaultRefClear:
		return "ref-clear"
	default:
		return fmt.Sprintf("fault(%d)", uint8(c))
	}
}

// ParseFaultClass resolves a class name (as printed by String).
func ParseFaultClass(s string) (FaultClass, error) {
	for _, c := range FaultClasses() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("harden: unknown fault class %q", s)
}

// Fault is one scheduled injection: at Cycle (or the first later cycle
// where a target exists), corrupt state per Class, choosing the target
// entry and bit deterministically from Seed.
type Fault struct {
	Class FaultClass
	Cycle uint64
	Seed  uint64
}

// Injector is implemented by register file models that support fault
// injection. Inject attempts to apply f now; ok is false when no
// suitable target exists yet (the pipeline retries next cycle), and
// detail describes exactly what was corrupted.
type Injector interface {
	Inject(f Fault) (detail string, ok bool)
}

// Outcome records one campaign run: what was injected and which checker
// (if any) caught it. It is a plain value, so a campaign run persists;
// Err therefore keeps the raised error's message, not the error.
type Outcome struct {
	Fault      Fault
	Injected   bool
	InjectedAt uint64 // cycle the corruption landed
	Detail     string // what was corrupted

	Detected   bool
	Detector   string // "lockstep", "invariant", "watchdog", "readcheck", "result", ""
	DetectedAt uint64 // cycle of detection (0 for end-of-run detectors)
	Err        string // the raised error's message, when one was raised
}

// Latency returns the detection latency in cycles (0 when undetected or
// caught only by an end-of-run check).
func (o Outcome) Latency() uint64 {
	if !o.Detected || o.DetectedAt < o.InjectedAt {
		return 0
	}
	return o.DetectedAt - o.InjectedAt
}

// Rand is a small deterministic generator (SplitMix64) used to derive
// injection targets from a campaign seed without depending on global
// randomness.
type Rand struct{ s uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Next returns the next 64-bit value.
func (r *Rand) Next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Intn returns a value in [0, n); n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("harden: Intn on non-positive bound (caller must check candidates first)")
	}
	return int(r.Next() % uint64(n))
}
