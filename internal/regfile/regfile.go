// Package regfile defines the integer physical register file abstraction
// the pipeline renames into, plus the two conventional organizations the
// paper compares against: the baseline file (112 entries, 8R/6W ports)
// and the unlimited-resource file (160 entries, 16R/8W ports).
//
// The content-aware organization — the paper's contribution — implements
// the same Model interface in internal/core.
package regfile

import (
	"fmt"

	"carf/internal/harden"
	"carf/internal/recycle"
)

// ValueType classifies a stored value per the paper's taxonomy (§2):
// simple values sign-extend from the low d+n bits, short values share
// their high-order bits with a similarity group, and long values have no
// exploitable partial locality.
type ValueType uint8

const (
	TypeSimple ValueType = iota
	TypeShort
	TypeLong
	TypeNone // unwritten / conventional file (no classification)
)

// String implements fmt.Stringer.
func (t ValueType) String() string {
	switch t {
	case TypeSimple:
		return "simple"
	case TypeShort:
		return "short"
	case TypeLong:
		return "long"
	default:
		return "none"
	}
}

// WriteFunc observes one completed register-file write: the value class
// the write was stored as (TypeNone for files that do not classify) and
// whether it was a pseudo-deadlock overflow spill. Failed TryWrite
// attempts (Recovery State) are not reported — only writes that landed.
type WriteFunc func(typ ValueType, spilled bool)

// WriteReporter is implemented by register file models that can report
// write outcomes to a profiler.
type WriteReporter interface {
	SetWriteReporter(fn WriteFunc)
}

// FileSpec describes one physical register array for the area/delay/
// energy model.
type FileSpec struct {
	Name       string
	Entries    int
	WidthBits  int
	ReadPorts  int
	WritePorts int
	CAM        bool // fully-associative lookup (CAM short-file variant)
}

// FileActivity pairs a register array with its access counts.
type FileActivity struct {
	Spec   FileSpec
	Reads  uint64
	Writes uint64
}

// Model is an integer physical register file organization as seen by the
// pipeline: a tag allocator plus timing (extra read/write stages) and
// access accounting. Writes carry the 64-bit result value so that
// content-aware organizations can classify it.
//
// Besides the shape (NumTags, ReadStages, WriteStages and, under port
// contention, the first array's ports), four answers steer the timing
// of a single-threaded, unclustered core: Alloc's, TryWrite's,
// LongStall's and ReadValue's (through the reconstruction check). Two
// models that give the same answers to those see the same run, which
// is what lets one pipeline run serve several models (pipeline's
// CPU.Follow). Read's and TypeOf's answers only feed statistics and
// the SMT thread-priority policy.
type Model interface {
	// Name identifies the organization in reports.
	Name() string
	// NumTags returns the number of rename tags (physical registers).
	NumTags() int
	// Alloc claims a destination tag at rename; ok is false when the
	// file is out of tags (rename stalls).
	Alloc() (tag int, ok bool)
	// Free releases a tag when the redefining instruction commits.
	Free(tag int)
	// ReadStages is the number of operand-read pipeline stages (1 for
	// conventional files, 2 for the content-aware file: RF1+RF2).
	ReadStages() int
	// WriteStages is the number of write-back stages (1 conventional,
	// 2 content-aware: WR1 classify + WR2 write).
	WriteStages() int
	// Read performs one operand read of tag for accounting and returns
	// the stored value's type.
	Read(tag int) ValueType
	// TryWrite performs write-back of value to tag. It returns false on
	// a structural hazard (no free long register: the paper's Recovery
	// State); the pipeline retries next cycle.
	TryWrite(tag int, value uint64) bool
	// ForceWrite performs a write that cannot fail (hard pseudo-deadlock
	// resolution). Conventional files never fail, so it equals TryWrite.
	ForceWrite(tag int, value uint64)
	// TypeOf reports the current value type of tag without accounting.
	TypeOf(tag int) ValueType
	// ReadValue reconstructs the stored 64-bit value of tag (used by
	// verification and the oracle; not an energy-counted access).
	ReadValue(tag int) (uint64, bool)
	// NoteAddress offers a load/store effective address computed in the
	// AGU stage; the content-aware file may install it in the Short file.
	NoteAddress(addr uint64)
	// OnRobInterval is called each time a full ROB's worth of
	// instructions has committed, with the retirement-map tags
	// (architecturally live registers). Drives Short-file reclamation.
	OnRobInterval(archTags []int)
	// LongStall reports whether issue must stall because the number of
	// free long registers has fallen to the threshold (pseudo-deadlock
	// prevention, §3.2).
	LongStall(threshold int) bool
	// Files returns per-array access activity for the energy model.
	Files() []FileActivity
	// Reset clears all state and statistics.
	Reset()
}

// Conventional is a flat, full-width physical register file. It backs
// both the baseline and unlimited configurations.
type Conventional struct {
	name    string
	spec    FileSpec
	free    []int
	inUse   []bool
	values  []uint64
	wrote   []bool
	reads   uint64
	writes  uint64
	faults  []string
	writeFn WriteFunc
}

// SetWriteReporter implements WriteReporter (nil removes the reporter).
func (c *Conventional) SetWriteReporter(fn WriteFunc) { c.writeFn = fn }

// NewConventional builds a flat 64-bit physical register file.
func NewConventional(name string, entries, readPorts, writePorts int) *Conventional {
	c := &Conventional{
		name: name,
		spec: FileSpec{
			Name: name, Entries: entries, WidthBits: 64,
			ReadPorts: readPorts, WritePorts: writePorts,
		},
	}
	c.Reset()
	return c
}

// Baseline returns the paper's baseline integer file: 112 registers with
// 8 read and 6 write ports (§4).
func Baseline() *Conventional { return NewConventional("baseline", 112, 8, 6) }

// Unlimited returns the unlimited-resource reference file: ROB size plus
// the 32 architectural registers = 160 entries, 2x8 read and 8 write
// ports (§4).
func Unlimited() *Conventional { return NewConventional("unlimited", 160, 16, 8) }

// Name implements Model.
func (c *Conventional) Name() string { return c.name }

// NumTags implements Model.
func (c *Conventional) NumTags() int { return c.spec.Entries }

// Alloc implements Model.
func (c *Conventional) Alloc() (int, bool) {
	if len(c.free) == 0 {
		return 0, false
	}
	tag := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.inUse[tag] = true
	return tag, true
}

// Free implements Model. A double free is recorded in the fault log
// (surfaced by the hardening layer's invariant sweeps and at the end of
// a run) instead of corrupting the free list.
func (c *Conventional) Free(tag int) {
	if tag < 0 || tag >= c.spec.Entries || !c.inUse[tag] {
		c.faults = append(c.faults, fmt.Sprintf("regfile %s: double free of tag %d", c.name, tag))
		return
	}
	c.inUse[tag] = false
	c.wrote[tag] = false
	c.free = append(c.free, tag)
}

// ReadStages implements Model.
func (c *Conventional) ReadStages() int { return 1 }

// WriteStages implements Model.
func (c *Conventional) WriteStages() int { return 1 }

// Read implements Model.
func (c *Conventional) Read(tag int) ValueType {
	c.reads++
	return TypeNone
}

// TryWrite implements Model.
func (c *Conventional) TryWrite(tag int, value uint64) bool {
	c.writes++
	c.values[tag] = value
	c.wrote[tag] = true
	if c.writeFn != nil {
		c.writeFn(TypeNone, false)
	}
	return true
}

// ForceWrite implements Model (conventional writes never fail).
func (c *Conventional) ForceWrite(tag int, value uint64) { c.TryWrite(tag, value) }

// TypeOf implements Model.
func (c *Conventional) TypeOf(tag int) ValueType { return TypeNone }

// ReadValue implements Model.
func (c *Conventional) ReadValue(tag int) (uint64, bool) {
	if !c.inUse[tag] || !c.wrote[tag] {
		return 0, false
	}
	return c.values[tag], true
}

// NoteAddress implements Model (no-op for conventional files).
func (c *Conventional) NoteAddress(addr uint64) {}

// OnRobInterval implements Model (no-op for conventional files).
func (c *Conventional) OnRobInterval(archTags []int) {}

// LongStall implements Model (conventional files never long-stall).
func (c *Conventional) LongStall(threshold int) bool { return false }

// Files implements Model.
func (c *Conventional) Files() []FileActivity {
	return []FileActivity{{Spec: c.spec, Reads: c.reads, Writes: c.writes}}
}

// FreeTags returns the number of unallocated tags (tests, stats).
func (c *Conventional) FreeTags() int { return len(c.free) }

// Faults implements harden.FaultReporter: internal faults recorded
// instead of panicking (double frees).
func (c *Conventional) Faults() []string { return c.faults }

// CheckInvariants implements harden.Checker: free-list accounting for
// the flat file. Every tag is either allocated or on the free list,
// exactly once.
func (c *Conventional) CheckInvariants() []harden.Violation {
	var vs []harden.Violation
	seen := make([]bool, c.spec.Entries)
	for _, tag := range c.free {
		if tag < 0 || tag >= c.spec.Entries {
			vs = append(vs, harden.Violation{Check: "freelist",
				Detail: fmt.Sprintf("%s: free-list tag %d out of range", c.name, tag)})
			continue
		}
		if seen[tag] {
			vs = append(vs, harden.Violation{Check: "freelist",
				Detail: fmt.Sprintf("%s: tag %d on the free list twice", c.name, tag)})
		}
		seen[tag] = true
		if c.inUse[tag] {
			vs = append(vs, harden.Violation{Check: "freelist",
				Detail: fmt.Sprintf("%s: tag %d both in use and on the free list", c.name, tag)})
		}
	}
	inUse := 0
	for _, u := range c.inUse {
		if u {
			inUse++
		}
	}
	if inUse+len(c.free) != c.spec.Entries {
		vs = append(vs, harden.Violation{Check: "freelist",
			Detail: fmt.Sprintf("%s: %d in use + %d free != %d entries", c.name, inUse, len(c.free), c.spec.Entries)})
	}
	return vs
}

// Tables released by Conventional.Release, reused by the next Reset.
var (
	tagPool   recycle.Pool[int]
	flagPool  recycle.Pool[bool]
	valuePool recycle.Pool[uint64]
)

// Reset implements Model: the file's tables are released ones when
// available (see Release).
func (c *Conventional) Reset() {
	c.Release()
	n := c.spec.Entries
	c.free = tagPool.Get(n)
	for i := range c.free {
		c.free[i] = n - 1 - i // pop order: 0, 1, 2, ...
	}
	c.inUse = flagPool.Get(n)
	c.values = valuePool.Get(n)
	c.wrote = flagPool.Get(n)
	c.reads, c.writes = 0, 0
	c.faults = nil
}

// Release hands the file's tables back for reuse by a later Reset and
// drops them; a second call does nothing. A releasing pipeline Finalize
// calls it. Afterwards Name, NumTags, Files and Faults stay valid;
// nothing may read the tables (ReadValue, FreeTags, CheckInvariants,
// the metric series) or write them until Reset.
func (c *Conventional) Release() {
	tagPool.Return(&c.free)
	flagPool.Return(&c.inUse)
	valuePool.Return(&c.values)
	flagPool.Return(&c.wrote)
}
