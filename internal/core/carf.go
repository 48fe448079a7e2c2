// Package core implements the paper's contribution: the content-aware
// integer register file organization (González et al., ISCA 2004).
//
// A conventional N-entry, 64-bit physical register file is replaced by
// three arrays sized around partial value locality:
//
//   - the Simple file: N entries × (2 + d+n) bits. Every rename tag maps
//     to one entry, holding a 2-bit Register Descriptor (value type) and
//     a (d+n)-bit Value field;
//   - the Short file: M entries × (64−d−n) bits, holding the shared
//     high-order bits of (64−d)-similar value groups, indexed by bits
//     [d, d+n) of the value itself;
//   - the Long file: K entries × (64−d−n+m) bits (m = log2 K), holding
//     the high part of values with no partial locality, reached through
//     an m-bit pointer stored in the Value field.
//
// The package implements the full §3 machinery: write-back
// classification (WR1/WR2), Short-file allocation restricted to
// load/store effective addresses, the Tcur/Tarch/Told reference-bit
// reclamation cleared every ROB interval, the Long free list with
// pseudo-deadlock Recovery State, and per-array access accounting for
// the energy model. It satisfies regfile.Model, so the pipeline treats
// it interchangeably with the conventional organizations.
package core

import (
	"fmt"
	"math/bits"

	"carf/internal/recycle"
	"carf/internal/regfile"
)

// Params configures the content-aware file. The zero value is not
// usable; start from DefaultParams.
type Params struct {
	NumSimple int // N: number of rename tags (simple entries)
	NumShort  int // M: short-file entries (power of two)
	NumLong   int // K: long-file entries (power of two)
	DPlusN    int // width of the Simple value field (d+n bits)

	// Port counts, used only by the energy/area/time model (the paper
	// keeps the baseline's port counts on every sub-file, §4).
	ReadPorts  int
	WritePorts int

	// CAMShort selects the fully-associative Short file variant
	// discussed in §4 (higher IPC, CAM energy cost). In this variant the
	// Short file stores bits [d, 64) and the Value field holds an
	// explicit n-bit pointer alongside the d low bits.
	CAMShort bool

	// ShortFree selects the Short-entry reclamation policy. The paper
	// uses the reference-bit scheme (FreeRefBits); the alternatives
	// bound it from above and below for the ablation study.
	ShortFree ShortFreePolicy
}

// ShortFreePolicy is a Short-file reclamation strategy.
type ShortFreePolicy uint8

const (
	// FreeRefBits is the paper's §3.2 scheme: Tcur/Tarch/Told bits
	// cleared every ROB interval, virtual-memory style.
	FreeRefBits ShortFreePolicy = iota
	// FreeRefCount is an idealized per-entry reference counter (exact
	// liveness; the paper rejects it as too complex in hardware,
	// especially across branch misprediction — it serves as the upper
	// bound on what reclamation can achieve).
	FreeRefCount
	// FreeNever never reclaims entries: the lower bound. Once the file
	// fills with stale groups, new address regions fall to the Long
	// file.
	FreeNever
)

// String implements fmt.Stringer.
func (p ShortFreePolicy) String() string {
	switch p {
	case FreeRefBits:
		return "refbits"
	case FreeRefCount:
		return "refcount"
	case FreeNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// DefaultParams returns the paper's chosen configuration: 112 simple
// entries, 8 short, 48 long, d+n = 20, baseline port counts.
func DefaultParams() Params {
	return Params{
		NumSimple:  112,
		NumShort:   8,
		NumLong:    48,
		DPlusN:     20,
		ReadPorts:  8,
		WritePorts: 6,
	}
}

// N returns n = log2(M), the short-pointer width (M is a power of two).
func (p Params) N() int { return bits.Len(uint(p.NumShort)) - 1 }

// M returns m = ceil(log2(K)), the long-pointer width. K need not be a
// power of two (the paper uses 48).
func (p Params) M() int { return bits.Len(uint(p.NumLong - 1)) }

// D returns d = (d+n) − n, the low-bits width of the similarity relation.
func (p Params) D() int { return p.DPlusN - p.N() }

// Validate checks structural constraints.
func (p Params) Validate() error {
	switch {
	case p.NumSimple <= 0:
		return fmt.Errorf("core: NumSimple %d", p.NumSimple)
	case p.NumShort <= 1 || p.NumShort&(p.NumShort-1) != 0:
		return fmt.Errorf("core: NumShort %d must be a power of two > 1", p.NumShort)
	case p.NumLong <= 1:
		return fmt.Errorf("core: NumLong %d", p.NumLong)
	case p.DPlusN <= p.N() || p.DPlusN >= 63:
		return fmt.Errorf("core: DPlusN %d out of range (n=%d)", p.DPlusN, p.N())
	case p.DPlusN <= p.M():
		return fmt.Errorf("core: value field too narrow for long pointer (d+n=%d, m=%d)", p.DPlusN, p.M())
	}
	return nil
}

// Stats aggregates the file's dynamic behaviour for the evaluation.
type Stats struct {
	// Per-type operand reads (RF2 classification) and result writes
	// (WR2 classification) — Figure 6.
	ReadsByType  [3]uint64
	WritesByType [3]uint64

	// Short-file behaviour.
	ShortInstalls     uint64 // address values installed in the Short file
	ShortInstallFails uint64 // address offered but indexed slot busy
	ShortFrees        uint64 // entries reclaimed by the reference-bit scheme

	// (64−d)-similarity classification of non-simple values at
	// write-back: a hit finds a live Short group (the value becomes
	// short-typed); a miss demotes the value to the Long file (a
	// Short→Long promotion). Counted per completed write, so
	// SimilarityHits == WritesByType[short] and SimilarityMisses ==
	// WritesByType[long].
	SimilarityHits   uint64
	SimilarityMisses uint64

	// Long-file behaviour.
	LongAllocs      uint64
	LongFrees       uint64
	RecoveryEvents  uint64 // TryWrite failed: Recovery State entries (§3.2)
	OverflowSpills  uint64 // hard pseudo-deadlock resolved via spill path
	LiveLongSamples uint64 // samples accumulated by SampleLiveLong
	LiveLongSum     uint64

	RobIntervals uint64
}

// AvgLiveLong returns the average number of live long registers
// (the paper reports 12.7 for its configuration, §6).
func (s Stats) AvgLiveLong() float64 {
	if s.LiveLongSamples == 0 {
		return 0
	}
	return float64(s.LiveLongSum) / float64(s.LiveLongSamples)
}

type simpleEntry struct {
	typ     regfile.ValueType
	low     uint64 // the (d+n)-bit Value field, semantics depend on typ
	longIdx int    // long pointer (kept unpacked for clarity; -1 if none)
	written bool
	inUse   bool
}

type shortEntry struct {
	hi   uint64 // shared high-order bits
	live bool
	tcur bool // written/used this ROB interval
	tarc bool // referenced by an architectural register
	told bool // used during the previous ROB interval
	refs int  // live Simple entries pointing here (FreeRefCount policy)
}

// File is the content-aware integer register file.
type File struct {
	p       Params
	d, n, m int

	simple []simpleEntry
	short  []shortEntry
	long   []uint64 // stored high parts
	longIn []bool   // long entry in use

	freeTags []int
	freeLong []int

	// overflow holds values that entered the hard pseudo-deadlock spill
	// path: a long value had to be written with zero free long entries
	// and no possible forward progress. Entries are addressed by
	// longIdx >= NumLong. The paper stalls and frees; the spill keeps
	// the simulator total and is counted in Stats.OverflowSpills. The
	// first spill makes the map; Reset clears it.
	overflow map[int]uint64
	nextOver int

	// Access counters (per physical array).
	simpleReads, simpleWrites uint64
	shortReads, shortWrites   uint64
	longReads, longWrites     uint64

	// lastArch is the Tarch vector computed at the most recent ROB
	// interval; the invariant checker compares it against the stored
	// reference bits (they only change together inside OnRobInterval).
	// It aliases one half of archBuf — OnRobInterval double-buffers so
	// the retained vector survives while the next one is being built
	// without allocating per interval.
	lastArch []bool
	archBuf  [2][]bool
	// refScratch is OnRobInterval's non-retained scratch vector.
	refScratch []bool
	// checkFree (free-list marks: Simple tags, then Long entries) and
	// checkOwner are CheckInvariants' scratch vectors.
	checkFree  []bool
	checkOwner []int
	// stuckTarc indexes a Short entry whose Tarch clear is dropped
	// (harden.FaultRefClear); -1 when no such fault is injected.
	stuckTarc int
	// faults records internal errors (double frees) instead of
	// panicking; the hardening layer surfaces them.
	faults []string

	// report observes write outcomes (regfile.WriteReporter); nil when
	// no profiler is attached. Only successful writes are reported —
	// a failed TryWrite (Recovery State) lands later as a retry.
	report regfile.WriteFunc

	stats Stats
}

// SetWriteReporter implements regfile.WriteReporter (nil removes the
// reporter).
func (f *File) SetWriteReporter(fn regfile.WriteFunc) { f.report = fn }

// New builds a content-aware file from p. Parameters must already have
// passed Params.Validate (every construction path validates first), so
// an invalid p here is a programming bug, not a runtime condition.
func New(p Params) *File {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("core: New called with unvalidated params (invariant: callers run Params.Validate first): %v", err))
	}
	f := &File{p: p}
	f.Reset()
	return f
}

// Params returns the file's configuration.
func (f *File) Params() Params { return f.p }

// Stats returns the dynamic behaviour counters.
func (f *File) Stats() Stats { return f.stats }

// WritesByType returns the completed writes per value class so far
// (Stats().WritesByType), for live progress reports.
func (f *File) WritesByType() [3]uint64 { return f.stats.WritesByType }

// Tables released by File.Release, reused by the next New or Reset.
var (
	simplePool recycle.Pool[simpleEntry]
	shortPool  recycle.Pool[shortEntry]
	longPool   recycle.Pool[uint64]
	flagPool   recycle.Pool[bool] // Long-entry flags, scratch vectors
	indexPool  recycle.Pool[int]  // free lists, long owners
)

// Reset implements regfile.Model: the file's tables are released ones
// when available (see Release).
func (f *File) Reset() {
	f.Release()
	f.d, f.n, f.m = f.p.D(), f.p.N(), f.p.M()
	f.simple = simplePool.Get(f.p.NumSimple)
	for i := range f.simple {
		f.simple[i].longIdx = -1
	}
	f.short = shortPool.Get(f.p.NumShort)
	f.long = longPool.Get(f.p.NumLong)
	f.longIn = flagPool.Get(f.p.NumLong)
	f.freeTags = indexPool.Get(f.p.NumSimple)
	for i := range f.freeTags {
		f.freeTags[i] = f.p.NumSimple - 1 - i
	}
	f.freeLong = indexPool.Get(f.p.NumLong)
	for i := range f.freeLong {
		f.freeLong[i] = f.p.NumLong - 1 - i
	}
	clear(f.overflow)
	f.nextOver = f.p.NumLong
	f.simpleReads, f.simpleWrites = 0, 0
	f.shortReads, f.shortWrites = 0, 0
	f.longReads, f.longWrites = 0, 0
	f.stuckTarc = -1
	f.faults = nil
	f.stats = Stats{}
}

// Release hands the file's tables back for reuse by a later New or
// Reset and drops them; a second call does nothing. A releasing
// pipeline Finalize calls it. Afterwards Stats, Files, WritesByType,
// Faults, Params, Name and NumTags stay valid; nothing may read the
// tables (ReadValue, TypeOf, CheckInvariants, FreeLong, the metric
// series) or write them until Reset.
func (f *File) Release() {
	simplePool.Return(&f.simple)
	shortPool.Return(&f.short)
	longPool.Return(&f.long)
	flagPool.Return(&f.longIn)
	indexPool.Return(&f.freeTags)
	indexPool.Return(&f.freeLong)
	// The scratch vectors OnRobInterval and CheckInvariants make on
	// first use.
	flagPool.Return(&f.refScratch)
	flagPool.Return(&f.archBuf[0])
	flagPool.Return(&f.archBuf[1])
	f.lastArch = nil
	flagPool.Return(&f.checkFree)
	indexPool.Return(&f.checkOwner)
}

// Name implements regfile.Model.
func (f *File) Name() string {
	name := "content-aware"
	if f.p.CAMShort {
		name += "(cam)"
	}
	if f.p.ShortFree != FreeRefBits {
		name += "(" + f.p.ShortFree.String() + ")"
	}
	return name
}

// NumTags implements regfile.Model.
func (f *File) NumTags() int { return f.p.NumSimple }

// Alloc implements regfile.Model: renaming assigns a Simple entry to
// every destination; the value type is unknown until write-back.
func (f *File) Alloc() (int, bool) {
	if len(f.freeTags) == 0 {
		return 0, false
	}
	tag := f.freeTags[len(f.freeTags)-1]
	f.freeTags = f.freeTags[:len(f.freeTags)-1]
	f.simple[tag] = simpleEntry{longIdx: -1, inUse: true}
	return tag, true
}

// Free implements regfile.Model: Long and Simple resources return at
// commit of the redefining instruction. A double free is recorded in
// the fault log (surfaced by the hardening layer's invariant sweeps and
// at the end of a run) instead of corrupting the free lists.
func (f *File) Free(tag int) {
	if tag < 0 || tag >= f.p.NumSimple {
		f.faults = append(f.faults, fmt.Sprintf("core: free of out-of-range tag %d", tag))
		return
	}
	e := &f.simple[tag]
	if !e.inUse {
		f.faults = append(f.faults, fmt.Sprintf("core: double free of tag %d", tag))
		return
	}
	f.releaseShort(e)
	f.releaseLong(e)
	*e = simpleEntry{longIdx: -1}
	f.freeTags = append(f.freeTags, tag)
}

// releaseShort drops a short-typed Simple entry's reference to its
// group; under the idealized refcount policy the group is reclaimed the
// moment its last reference dies.
func (f *File) releaseShort(e *simpleEntry) {
	if e.typ != regfile.TypeShort || !e.written {
		return
	}
	sEnt := &f.short[f.shortIndexOf(e)]
	if sEnt.refs > 0 {
		sEnt.refs--
	}
	if f.p.ShortFree == FreeRefCount && sEnt.refs == 0 && sEnt.live {
		sEnt.live = false
		f.stats.ShortFrees++
	}
}

func (f *File) releaseLong(e *simpleEntry) {
	if e.typ != regfile.TypeLong || e.longIdx < 0 {
		return
	}
	if e.longIdx >= f.p.NumLong {
		delete(f.overflow, e.longIdx)
	} else {
		f.longIn[e.longIdx] = false
		f.freeLong = append(f.freeLong, e.longIdx)
		f.stats.LongFrees++
	}
	e.longIdx = -1
}

// ReadStages implements regfile.Model: RF1 (Simple) + RF2 (Short/Long
// and the result multiplexor).
func (f *File) ReadStages() int { return 2 }

// WriteStages implements regfile.Model: WR1 (classify/allocate) + WR2
// (write).
func (f *File) WriteStages() int { return 2 }

// lowMask returns the (d+n)-bit value-field mask.
func (f *File) lowMask() uint64 { return 1<<uint(f.p.DPlusN) - 1 }

// Read implements regfile.Model: one Simple access always, plus a Short
// or Long access depending on the Register Descriptor.
func (f *File) Read(tag int) regfile.ValueType {
	e := &f.simple[tag]
	f.simpleReads++
	switch e.typ {
	case regfile.TypeShort:
		f.shortReads++
		f.stats.ReadsByType[regfile.TypeShort]++
	case regfile.TypeLong:
		f.longReads++
		f.stats.ReadsByType[regfile.TypeLong]++
	default:
		f.stats.ReadsByType[regfile.TypeSimple]++
	}
	return e.typ
}

// TypeOf implements regfile.Model.
func (f *File) TypeOf(tag int) regfile.ValueType {
	e := &f.simple[tag]
	if !e.written {
		return regfile.TypeNone
	}
	return e.typ
}

// Classify determines the value type v would be assigned if written now,
// without touching state. The pipeline uses it for the operand-type
// distribution of Table 4; write-back classification follows the same
// rules inside TryWrite.
func (f *File) Classify(v uint64) regfile.ValueType {
	if signExtend(v&f.lowMask(), uint(f.p.DPlusN)) == v {
		return regfile.TypeSimple
	}
	if _, ok := f.shortLookup(v); ok {
		return regfile.TypeShort
	}
	return regfile.TypeLong
}

// shortLookup finds a live Short entry matching v's high bits. In the
// direct-indexed organization the entry is named by bits [d, d+n) of v;
// in the CAM variant every entry is searched.
func (f *File) shortLookup(v uint64) (int, bool) {
	if f.p.CAMShort {
		hi := v >> uint(f.d)
		for i := range f.short {
			if f.short[i].live && f.short[i].hi == hi {
				return i, true
			}
		}
		return 0, false
	}
	idx := int(v >> uint(f.d) & uint64(f.p.NumShort-1))
	s := &f.short[idx]
	if s.live && s.hi == v>>uint(f.p.DPlusN) {
		return idx, true
	}
	return 0, false
}

// TryWrite implements regfile.Model: the WR1 classification followed by
// the WR2 write. It returns false when the value is long and the Long
// file is exhausted — the pipeline enters the Recovery State and retries
// after commits free entries.
func (f *File) TryWrite(tag int, v uint64) bool {
	e := &f.simple[tag]
	// WR1: classification. The Short comparison costs one Short-file
	// read per write port (the file has dedicated compare ports, §3.2).
	f.shortReads++
	dn := uint(f.p.DPlusN)
	low := v & f.lowMask()

	if signExtend(low, dn) == v {
		f.releaseShort(e)
		f.releaseLong(e)
		e.typ = regfile.TypeSimple
		e.low = low
		e.written = true
		f.simpleWrites++
		f.stats.WritesByType[regfile.TypeSimple]++
		if f.report != nil {
			f.report(regfile.TypeSimple, false)
		}
		return true
	}

	if idx, ok := f.shortLookup(v); ok {
		f.releaseShort(e)
		f.releaseLong(e)
		e.typ = regfile.TypeShort
		if f.p.CAMShort {
			// d low bits plus an explicit n-bit pointer.
			e.low = uint64(idx)<<uint(f.d) | v&(1<<uint(f.d)-1)
		} else {
			e.low = low // pointer bits [d, d+n) are part of the value
		}
		e.written = true
		f.short[idx].tcur = true
		f.short[idx].refs++
		f.simpleWrites++
		f.stats.SimilarityHits++
		f.stats.WritesByType[regfile.TypeShort]++
		if f.report != nil {
			f.report(regfile.TypeShort, false)
		}
		return true
	}

	// Long value: allocate an entry at write-back (§3.2).
	f.releaseShort(e)
	if e.typ == regfile.TypeLong && e.longIdx >= 0 {
		// Retried write after a recovery stall resolved, or a rewrite of
		// the same tag: reuse the held entry.
	} else if len(f.freeLong) > 0 {
		idx := f.freeLong[len(f.freeLong)-1]
		f.freeLong = f.freeLong[:len(f.freeLong)-1]
		f.longIn[idx] = true
		e.longIdx = idx
		f.stats.LongAllocs++
	} else {
		f.stats.RecoveryEvents++
		return false
	}

	shift := uint(f.p.DPlusN - f.m)
	if e.longIdx < f.p.NumLong {
		f.long[e.longIdx] = v >> shift
		e.low = uint64(e.longIdx)<<shift | v&(1<<shift-1)
	} else {
		// Overflow entry: the pointer lives outside the modeled field.
		f.overflow[e.longIdx] = v >> shift
		e.low = v & (1<<shift - 1)
	}
	e.typ = regfile.TypeLong
	e.written = true
	f.simpleWrites++
	f.longWrites++
	f.stats.SimilarityMisses++
	f.stats.WritesByType[regfile.TypeLong]++
	if f.report != nil {
		f.report(regfile.TypeLong, false)
	}
	return true
}

// ForceWrite performs a write that cannot fail: if the Long file is
// exhausted it takes the overflow spill path (hard pseudo-deadlock
// resolution; counted in Stats). The pipeline uses it only when the
// stalled instruction is the oldest in the machine and no commit can
// free a Long entry.
func (f *File) ForceWrite(tag int, v uint64) {
	if f.TryWrite(tag, v) {
		return
	}
	e := &f.simple[tag]
	f.stats.OverflowSpills++
	idx := f.nextOver
	f.nextOver++
	e.longIdx = idx
	shift := uint(f.p.DPlusN - f.m)
	if f.overflow == nil {
		f.overflow = make(map[int]uint64)
	}
	f.overflow[idx] = v >> shift
	e.typ = regfile.TypeLong
	e.low = v & (1<<shift - 1) // pointer lives outside the modeled field
	e.written = true
	f.simpleWrites++
	f.longWrites++
	f.stats.SimilarityMisses++
	f.stats.WritesByType[regfile.TypeLong]++
	if f.report != nil {
		f.report(regfile.TypeLong, true)
	}
}

// ReadValue implements regfile.Model: it reconstructs the full 64-bit
// value from the sub-files — the correctness invariant of the whole
// organization.
func (f *File) ReadValue(tag int) (uint64, bool) {
	e := &f.simple[tag]
	if !e.inUse || !e.written {
		return 0, false
	}
	switch e.typ {
	case regfile.TypeSimple:
		return signExtend(e.low, uint(f.p.DPlusN)), true
	case regfile.TypeShort:
		if f.p.CAMShort {
			idx := int(e.low >> uint(f.d))
			return f.short[idx].hi<<uint(f.d) | e.low&(1<<uint(f.d)-1), true
		}
		idx := int(e.low >> uint(f.d) & uint64(f.p.NumShort-1))
		return f.short[idx].hi<<uint(f.p.DPlusN) | e.low, true
	case regfile.TypeLong:
		var hi uint64
		if e.longIdx >= 0 && e.longIdx < f.p.NumLong {
			hi = f.long[e.longIdx]
		} else {
			hi = f.overflow[e.longIdx]
		}
		shift := uint(f.p.DPlusN - f.m)
		return hi<<shift | e.low&(1<<shift-1), true
	}
	return 0, false
}

// NoteAddress implements regfile.Model: §3.2 restricts Short-file
// allocation to load/store effective addresses, installed in parallel
// with the ALU stage when the indexed slot is free.
func (f *File) NoteAddress(addr uint64) {
	// Addresses that are simple values need no Short entry.
	if signExtend(addr&f.lowMask(), uint(f.p.DPlusN)) == addr {
		return
	}
	if f.p.CAMShort {
		if _, ok := f.shortLookup(addr); ok {
			return
		}
		for i := range f.short {
			if !f.short[i].live {
				f.short[i] = shortEntry{hi: addr >> uint(f.d), live: true, tcur: true}
				f.shortWrites++
				f.stats.ShortInstalls++
				return
			}
		}
		f.stats.ShortInstallFails++
		return
	}
	idx := int(addr >> uint(f.d) & uint64(f.p.NumShort-1))
	s := &f.short[idx]
	if s.live && f.p.ShortFree == FreeRefCount && s.refs == 0 && s.hi != addr>>uint(f.p.DPlusN) {
		// Idealized policy: an unreferenced group can be displaced.
		s.live = false
		f.stats.ShortFrees++
	}
	if s.live {
		if s.hi != addr>>uint(f.p.DPlusN) {
			f.stats.ShortInstallFails++
		}
		return
	}
	*s = shortEntry{hi: addr >> uint(f.p.DPlusN), live: true, tcur: true}
	f.shortWrites++
	f.stats.ShortInstalls++
}

// OnRobInterval implements regfile.Model: the §3.2 reclamation scheme.
// Told captures last-interval usage, Tcur restarts, and Tarch is
// recomputed from the retirement map. An entry whose three bits are all
// clear is freed — but never while a live Simple entry still points at
// it (the architectural guarantee analysed in the paper; enforced here
// as a safety backstop so a modeling bug cannot corrupt values).
func (f *File) OnRobInterval(archTags []int) {
	f.stats.RobIntervals++
	if f.p.ShortFree != FreeRefBits {
		// FreeRefCount reclaims eagerly in releaseShort; FreeNever
		// reclaims nothing.
		return
	}
	if f.refScratch == nil {
		f.refScratch = flagPool.Get(f.p.NumShort)
		f.archBuf[0] = flagPool.Get(f.p.NumShort)
		f.archBuf[1] = flagPool.Get(f.p.NumShort)
	}
	referenced := f.refScratch
	clear(referenced)
	for i := range f.simple {
		e := &f.simple[i]
		if e.inUse && e.written && e.typ == regfile.TypeShort {
			referenced[f.shortIndexOf(e)] = true
		}
	}
	// Build into whichever buffer the checker is not currently reading
	// through f.lastArch, then publish it.
	arch := f.archBuf[0]
	if len(f.lastArch) > 0 && &arch[0] == &f.lastArch[0] {
		arch = f.archBuf[1]
	}
	clear(arch)
	for _, tag := range archTags {
		e := &f.simple[tag]
		if e.inUse && e.written && e.typ == regfile.TypeShort {
			arch[f.shortIndexOf(e)] = true
		}
	}
	f.lastArch = arch
	for i := range f.short {
		s := &f.short[i]
		if !s.live {
			continue
		}
		s.told = s.tcur || s.tarc
		s.tcur = false
		s.tarc = arch[i]
		if i == f.stuckTarc {
			// Injected fault: the interval clear of Tarch is dropped, so
			// the entry looks architecturally referenced forever.
			s.tarc = true
		}
		if !s.told && !s.tcur && !s.tarc && !referenced[i] {
			s.live = false
			f.stats.ShortFrees++
		}
	}
}

// shortIndexOf recovers the Short-file index a short-typed Simple entry
// points at.
func (f *File) shortIndexOf(e *simpleEntry) int {
	if f.p.CAMShort {
		return int(e.low >> uint(f.d))
	}
	return int(e.low >> uint(f.d) & uint64(f.p.NumShort-1))
}

// LongStall implements regfile.Model: issue stalls when the free Long
// count falls to the issue width (§3.2 prevention). The threshold is
// clamped to half the Long file so that pathologically small files
// (sensitivity sweeps) still make forward progress through the Recovery
// State instead of stalling issue permanently.
func (f *File) LongStall(threshold int) bool {
	if threshold > f.p.NumLong/2 {
		threshold = f.p.NumLong / 2
	}
	return len(f.freeLong) <= threshold
}

// FreeLong returns the number of free Long entries.
func (f *File) FreeLong() int { return len(f.freeLong) }

// Occupancy returns the live entries of the Simple, Short and Long
// arrays.
func (f *File) Occupancy() (simple, short, long int) {
	for i := range f.short {
		if f.short[i].live {
			short++
		}
	}
	return f.p.NumSimple - len(f.freeTags), short, f.p.NumLong - len(f.freeLong)
}

// SampleLiveLong accumulates a sample of the live Long-register count
// (the pipeline calls it periodically; §6 reports the average).
func (f *File) SampleLiveLong() {
	live := f.p.NumLong - len(f.freeLong)
	f.stats.LiveLongSamples++
	f.stats.LiveLongSum += uint64(live)
}

// Files implements regfile.Model: the three arrays with the widths of
// §3.1 and the configured port counts. The Short file carries one extra
// read port per write port for the WR1 comparisons.
func (f *File) Files() []regfile.FileActivity {
	shortWidth := 64 - f.d - f.n
	if f.p.CAMShort {
		shortWidth = 64 - f.d
	}
	return []regfile.FileActivity{
		{
			Spec: regfile.FileSpec{
				Name: "simple", Entries: f.p.NumSimple, WidthBits: 2 + f.p.DPlusN,
				ReadPorts: f.p.ReadPorts, WritePorts: f.p.WritePorts,
			},
			Reads: f.simpleReads, Writes: f.simpleWrites,
		},
		{
			Spec: regfile.FileSpec{
				Name: "short", Entries: f.p.NumShort, WidthBits: shortWidth,
				ReadPorts: f.p.ReadPorts + f.p.WritePorts, WritePorts: f.p.WritePorts,
				CAM: f.p.CAMShort,
			},
			Reads: f.shortReads, Writes: f.shortWrites,
		},
		{
			Spec: regfile.FileSpec{
				Name: "long", Entries: f.p.NumLong, WidthBits: 64 - f.p.DPlusN + f.m,
				ReadPorts: f.p.ReadPorts, WritePorts: f.p.WritePorts,
			},
			Reads: f.longReads, Writes: f.longWrites,
		},
	}
}

// signExtend interprets the low w bits of v as a signed quantity and
// extends it to 64 bits.
func signExtend(v uint64, w uint) uint64 {
	shift := 64 - w
	return uint64(int64(v<<shift) >> shift)
}
