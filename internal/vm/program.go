package vm

import (
	"fmt"
	"maps"

	"carf/internal/isa"
)

// Program is an executable R64 image: a list of instructions laid out
// contiguously from Base, plus an initial memory image. Programs are
// immutable once built; the same Program can back any number of Machines
// or pipeline simulations.
type Program struct {
	Name string
	Base uint64 // address of the first instruction
	Code []isa.Inst

	// InitRegs seeds integer architectural registers before execution
	// (e.g. the stack pointer). Keys are register numbers.
	InitRegs map[isa.Reg]uint64

	offsets []uint64 // offsets[i] = byte offset of Code[i] from Base
	size    uint64   // total code bytes

	// denseIdx maps a byte offset from Base to the instruction index
	// starting there, or -1 for non-boundary offsets. One array load
	// replaces the map lookup the fetch stage would otherwise pay per
	// instruction; code images are a few KB, so the table stays small.
	denseIdx []int32

	// Predecoded superblock cache (see decode.go). dec[i] is the decoded
	// form of Code[i]; runEnd[i] is the index of the first superblock
	// terminator (control transfer, HALT, undecodable op) at or after i.
	// Built once in NewProgram; programs are immutable, so never
	// invalidated.
	dec    []decOp
	runEnd []int32

	// image is the initial memory image — the data segments laid out in
	// pages, every frame marked shared — built once in NewProgram. Each
	// machine's memory starts as a copy of this map, so machines share
	// the pages until they write them.
	image map[uint64]frame
}

// Segment is an initialized span of data memory.
type Segment struct {
	Addr  uint64
	Bytes []byte
}

// NewProgram finalizes a program: it computes instruction addresses, the
// dense address→index table used by instruction fetch, and the initial
// memory image holding the data segments (which it does not retain).
func NewProgram(name string, base uint64, code []isa.Inst, data []Segment, initRegs map[isa.Reg]uint64) *Program {
	p := &Program{
		Name:     name,
		Base:     base,
		Code:     code,
		InitRegs: initRegs,
		offsets:  make([]uint64, len(code)),
	}
	var off uint64
	for i, inst := range code {
		p.offsets[i] = off
		off += uint64(inst.Size())
	}
	p.size = off
	p.denseIdx = make([]int32, off)
	for i := range p.denseIdx {
		p.denseIdx[i] = -1
	}
	for i := range code {
		p.denseIdx[p.offsets[i]] = int32(i)
	}
	p.predecode()
	var img Memory
	for _, seg := range data {
		img.StoreBytes(seg.Addr, seg.Bytes)
	}
	for pn, f := range img.pages {
		img.pages[pn] = frame{p: f.p, shared: true}
	}
	p.image = img.pages
	return p
}

// StraightLen returns the number of consecutive decoded straight-line
// instructions starting at index i — zero when Code[i] itself terminates
// a superblock. It is zero for indexes outside the predecoded range
// (programs constructed without NewProgram have no cache).
func (p *Program) StraightLen(i int) int {
	if i < 0 || i >= len(p.runEnd) {
		return 0
	}
	return int(p.runEnd[i]) - i
}

// Entry returns the address of the first instruction.
func (p *Program) Entry() uint64 { return p.Base }

// CodeSize returns the total encoded code size in bytes.
func (p *Program) CodeSize() uint64 { return p.size }

// AddrOf returns the address of instruction index i.
func (p *Program) AddrOf(i int) uint64 { return p.Base + p.offsets[i] }

// At returns the instruction at address addr. ok is false when addr is
// not the start of an instruction.
func (p *Program) At(addr uint64) (inst isa.Inst, ok bool) {
	i := p.IndexOf(addr)
	if i < 0 {
		return isa.Inst{}, false
	}
	return p.Code[i], true
}

// IndexOf returns the instruction index at address addr, or -1. It is
// O(1): one bounds check and one dense-table load (addresses below Base
// wrap to huge offsets and fail the bounds check).
func (p *Program) IndexOf(addr uint64) int {
	off := addr - p.Base
	if off >= p.size {
		return -1
	}
	return int(p.denseIdx[off])
}

// Validate checks that every control-transfer target lands on an
// instruction boundary inside the program. JALR targets are dynamic and
// cannot be checked statically.
func (p *Program) Validate() error {
	for i, inst := range p.Code {
		if !inst.Op.IsBranch() && inst.Op != isa.JAL {
			continue
		}
		next := p.AddrOf(i) + uint64(inst.Size())
		target := next + uint64(inst.Imm)
		if p.IndexOf(target) < 0 {
			return fmt.Errorf("program %s: instruction %d (%s) targets %#x, not an instruction boundary",
				p.Name, i, inst, target)
		}
	}
	return nil
}

// memory returns a fresh address space mapping the program's initial
// image copy-on-write, in a page map a released memory left behind
// when there is one.
func (p *Program) memory() *Memory {
	pages, ok := pageMaps.Get().(map[uint64]frame)
	if !ok {
		return &Memory{pages: maps.Clone(p.image)}
	}
	maps.Copy(pages, p.image)
	return &Memory{pages: pages}
}
