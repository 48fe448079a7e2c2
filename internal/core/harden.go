package core

import (
	"fmt"

	"carf/internal/harden"
	"carf/internal/regfile"
)

// This file implements the hardening hooks of the content-aware file:
// structural invariant self-checks (harden.Checker), the internal fault
// log (harden.FaultReporter), and deterministic fault injection
// (harden.Injector). Value-level corruption — does a flipped bit change
// what ReadValue reconstructs — is detected by the pipeline's sweep,
// which owns the oracle values; the checks here are purely structural.

// Faults implements harden.FaultReporter.
func (f *File) Faults() []string { return f.faults }

// CheckInvariants implements harden.Checker. It audits free-list
// accounting for the Simple and Long files, Long-entry ownership,
// Short-group liveness for every short-typed entry, and — under the
// reference-bit reclamation policy — that the stored Tarch bits match
// the retirement-map scan of the most recent ROB interval (they only
// change together inside OnRobInterval, so a disagreement means a
// dropped or stuck reference-bit update).
func (f *File) CheckInvariants() []harden.Violation {
	var vs []harden.Violation
	add := func(check, format string, args ...any) {
		vs = append(vs, harden.Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
	}

	// The scratch vectors are kept across sweeps and cleared here.
	if f.checkFree == nil {
		f.checkFree = flagPool.Get(f.p.NumSimple + f.p.NumLong)
		f.checkOwner = indexPool.Get(f.p.NumLong)
	}
	clear(f.checkFree)

	// Simple free list: every tag allocated or free, exactly once.
	onFree := f.checkFree[:f.p.NumSimple]
	for _, tag := range f.freeTags {
		if tag < 0 || tag >= f.p.NumSimple {
			add("freelist", "free-list tag %d out of range", tag)
			continue
		}
		if onFree[tag] {
			add("freelist", "tag %d on the free list twice", tag)
		}
		onFree[tag] = true
		if f.simple[tag].inUse {
			add("freelist", "tag %d both in use and on the free list", tag)
		}
	}
	inUse := 0
	for i := range f.simple {
		if f.simple[i].inUse {
			inUse++
		} else if !onFree[i] {
			add("freelist", "tag %d neither in use nor on the free list", i)
		}
	}
	if inUse+len(f.freeTags) != f.p.NumSimple {
		add("freelist", "%d in use + %d free != %d simple entries", inUse, len(f.freeTags), f.p.NumSimple)
	}

	// Long free list and entry ownership.
	longFree := f.checkFree[f.p.NumSimple:]
	for _, idx := range f.freeLong {
		if idx < 0 || idx >= f.p.NumLong {
			add("longlist", "free long index %d out of range", idx)
			continue
		}
		if longFree[idx] {
			add("longlist", "long entry %d on the free list twice", idx)
		}
		longFree[idx] = true
		if f.longIn[idx] {
			add("longlist", "long entry %d both in use and on the free list", idx)
		}
	}
	longUsed := 0
	for i, used := range f.longIn {
		if used {
			longUsed++
		} else if !longFree[i] {
			add("longlist", "long entry %d neither in use nor on the free list", i)
		}
	}
	if longUsed+len(f.freeLong) != f.p.NumLong {
		add("longlist", "%d in use + %d free != %d long entries", longUsed, len(f.freeLong), f.p.NumLong)
	}
	owner := f.checkOwner
	for i := range owner {
		owner[i] = -1
	}
	for i := range f.simple {
		e := &f.simple[i]
		if !e.inUse || e.typ != regfile.TypeLong || e.longIdx < 0 {
			continue
		}
		if e.longIdx >= f.p.NumLong {
			if _, ok := f.overflow[e.longIdx]; !ok {
				add("longlist", "tag %d points at missing overflow entry %d", i, e.longIdx)
			}
			continue
		}
		if !f.longIn[e.longIdx] {
			add("longlist", "tag %d points at free long entry %d", i, e.longIdx)
		}
		if o := owner[e.longIdx]; o >= 0 {
			add("longlist", "long entry %d owned by both tag %d and tag %d", e.longIdx, o, i)
		}
		owner[e.longIdx] = i
	}

	// Short-group liveness: a short-typed value must resolve to a live
	// group (the OnRobInterval backstop guarantees this in a correct
	// machine).
	for i := range f.simple {
		e := &f.simple[i]
		if e.inUse && e.written && e.typ == regfile.TypeShort {
			if idx := f.shortIndexOf(e); !f.short[idx].live {
				add("short", "tag %d points at dead short group %d", i, idx)
			}
		}
	}

	// Reference-bit consistency (§3.2 reclamation): Tarch must equal the
	// retirement-map scan recorded at the most recent ROB interval.
	if f.p.ShortFree == FreeRefBits && f.lastArch != nil {
		for i := range f.short {
			s := &f.short[i]
			if s.live && s.tarc != f.lastArch[i] {
				add("refbits", "short group %d Tarch=%v but the retirement map scan says %v (stuck reference bit)",
					i, s.tarc, f.lastArch[i])
			}
		}
	}
	return vs
}

// Inject implements harden.Injector: deterministic, seeded corruption of
// one entry per call. ok is false when no suitable target exists yet
// (the pipeline retries next cycle).
func (f *File) Inject(ft harden.Fault) (string, bool) {
	r := harden.NewRand(ft.Seed)
	switch ft.Class {
	case harden.FaultSimpleBit:
		var cands []int
		for i := range f.simple {
			if f.simple[i].inUse && f.simple[i].written {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return "", false
		}
		tag := cands[r.Intn(len(cands))]
		e := &f.simple[tag]
		// Restrict to bits that reach the reconstructed value: for a
		// long-typed entry only the low (d+n−m) bits are stored data (the
		// pointer is modeled unpacked in longIdx).
		width := f.p.DPlusN
		if e.typ == regfile.TypeLong {
			width = f.p.DPlusN - f.m
		}
		bit := uint(r.Intn(width))
		e.low ^= 1 << bit
		return fmt.Sprintf("flipped bit %d of %s simple entry %d", bit, e.typ, tag), true

	case harden.FaultShortBit:
		var cands []int
		for i := range f.short {
			if f.short[i].live {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return "", false
		}
		idx := cands[r.Intn(len(cands))]
		width := 64 - f.p.DPlusN
		if f.p.CAMShort {
			width = 64 - f.d
		}
		bit := uint(r.Intn(width))
		f.short[idx].hi ^= 1 << bit
		return fmt.Sprintf("flipped bit %d of short group %d", bit, idx), true

	case harden.FaultLongBit:
		var cands []int
		for i, used := range f.longIn {
			if used {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return "", false
		}
		idx := cands[r.Intn(len(cands))]
		bit := uint(r.Intn(64 - f.p.DPlusN + f.m))
		f.long[idx] ^= 1 << bit
		return fmt.Sprintf("flipped bit %d of long entry %d", bit, idx), true

	case harden.FaultFreeList:
		var cands []int
		for i := range f.simple {
			if f.simple[i].inUse {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return "", false
		}
		tag := cands[r.Intn(len(cands))]
		f.freeTags = append(f.freeTags, tag)
		return fmt.Sprintf("pushed in-use tag %d onto the free list", tag), true

	case harden.FaultRefClear:
		// A stuck Tarch bit only misbehaves on a group that is not
		// architecturally referenced (a referenced group legitimately has
		// Tarch set): wait for one to appear.
		if f.lastArch == nil {
			return "", false
		}
		var cands []int
		for i := range f.short {
			if f.short[i].live && !f.lastArch[i] {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return "", false
		}
		idx := cands[r.Intn(len(cands))]
		f.stuckTarc = idx
		f.short[idx].tarc = true
		return fmt.Sprintf("stuck Tarch reference bit of short group %d", idx), true
	}
	return "", false
}
