package pipeline

import (
	"fmt"

	"carf/internal/isa"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/vm"
)

// Wrong-path execution mode (Config.WrongPath). By default the simulator
// stalls fetch at a mispredicted branch until it resolves, which leaves
// wrong-path register file traffic out of the energy accounting (noted
// in EXPERIMENTS.md). With WrongPath enabled, fetch instead continues
// down the mispredicted direction of conditional branches: phantom
// instructions are fetched, renamed, issued, and written back like real
// ones — consuming tags, queue slots, cache bandwidth, and register file
// energy — and are squashed when the branch resolves, restoring the
// rename maps from a checkpoint.
//
// Phantom values are synthesized with the pure evaluator (vm.Eval) over
// the current rename-map values, and phantom loads read the
// architectural memory image; phantom stores never write. Wrong-path
// fetch ends at the first control transfer (no nested speculation), a
// bounded simplification documented in DESIGN.md.

// wrongState tracks one in-flight wrong-path episode.
type wrongState struct {
	branch  *dynInst
	pc      uint64
	stalled bool
	intMap  [isa.NumRegs]int
	fpMap   [isa.NumRegs]int
}

// startWrongPath begins fetching down the mispredicted direction of a
// conditional branch. Returns false when no wrong-path target exists
// (indirect mispredicts keep the stall behaviour).
func (c *CPU) startWrongPath(in *dynInst, pc uint64) bool {
	if !in.inst.Op.IsBranch() {
		return false
	}
	var target uint64
	if in.eff.Taken {
		// Predicted not-taken: the wrong path is the fall-through.
		target = pc + uint64(in.inst.Size())
	} else {
		// Predicted taken: the wrong path is the branch target.
		target = pc + uint64(in.inst.Size()) + uint64(in.inst.Imm)
	}
	// The rename-map checkpoint is taken when the branch itself renames
	// (older in-flight instructions must update the map first); see
	// CPU.rename.
	c.wrongBuf = wrongState{branch: in, pc: target}
	c.wrong = &c.wrongBuf
	return true
}

// fetchWrongPath fetches up to FetchWidth phantom instructions.
func (c *CPU) fetchWrongPath() {
	w := c.wrong
	if w.stalled {
		return
	}
	lineMask := ^(uint64(c.cfg.Hierarchy.L1I.LineBytes) - 1)
	capacity := 3 * c.cfg.FetchWidth
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.front.Len() >= capacity {
			return
		}
		inst, ok := c.mach.Prog.At(w.pc)
		if !ok || inst.Op.IsControl() || inst.Op == isa.HALT {
			// Ran off the instruction stream or hit a control
			// transfer: stop speculating until the squash.
			w.stalled = true
			return
		}
		if line := w.pc & lineMask; line != c.lastFetchLine {
			lat := c.hier.FetchLatency(w.pc)
			c.lastFetchLine = line
			if lat > 1 {
				c.fetchResume = c.now + int64(lat) - 1
				c.lastFetchLine = ^uint64(0)
				if c.pp != nil {
					c.pp.resume = profile.CatFrontend
				}
				return
			}
		}
		in := c.newDyn()
		in.seq = c.seq
		in.pc = w.pc
		in.inst = inst
		in.phantom = true
		in.isLoad = inst.Op.IsLoad()
		in.isStore = inst.Op.IsStore()
		in.fetchC = c.now
		in.isMem = in.isLoad || in.isStore
		in.eff = c.phantomEffect(inst, w.pc)
		if in.isMem {
			in.memLat = c.hier.DataLatencyPC(in.eff.Addr, w.pc)
		}
		c.seq++
		c.stats.WrongPathFetched++
		c.front.PushBack(in)
		w.pc += uint64(inst.Size())
	}
}

// phantomEffect synthesizes the effect of a wrong-path instruction from
// the fetch-time rename-map values — approximate by construction, but
// self-consistent (reads of phantom results reconstruct what was
// written).
func (c *CPU) phantomEffect(inst isa.Inst, pc uint64) vm.Effect {
	eff := vm.Effect{NextPC: pc + uint64(inst.Size())}
	srcVal := func(class isa.RegClass, r isa.Reg) uint64 {
		switch class {
		case isa.RegInt:
			if r == isa.Zero {
				return 0
			}
			return c.intValue[c.intMap[r]]
		default:
			return 0 // FP values are not tracked; immaterial downstream
		}
	}
	a := srcVal(inst.Op.Rs1Class(), inst.Rs1)
	b := srcVal(inst.Op.Rs2Class(), inst.Rs2)

	switch {
	case inst.Op.IsLoad():
		addr := a + uint64(inst.Imm)
		size := loadSize(inst.Op)
		eff.Mem, eff.Addr, eff.Size = true, addr, size
		eff.WritesReg = true
		eff.RdClass = inst.Op.RdClass()
		eff.Rd = inst.Rd
		eff.RdValue = c.mach.Mem.Read(addr, size)
	case inst.Op.IsStore():
		addr := a + uint64(inst.Imm)
		eff.Mem, eff.Store = true, true
		eff.Addr, eff.Size = addr, storeSize(inst.Op)
		eff.StoreVal = b
	default:
		if v, ok := vm.Eval(inst, a, b); ok {
			eff.WritesReg = inst.Op.RdClass() != isa.RegNone &&
				!(inst.Op.RdClass() == isa.RegInt && inst.Rd == isa.Zero)
			eff.RdClass = inst.Op.RdClass()
			eff.Rd = inst.Rd
			eff.RdValue = v
		}
	}
	return eff
}

func loadSize(op isa.Op) int {
	switch op {
	case isa.LW, isa.LWU:
		return 4
	case isa.LB, isa.LBU:
		return 1
	default:
		return 8
	}
}

func storeSize(op isa.Op) int {
	switch op {
	case isa.SW:
		return 4
	case isa.SB:
		return 1
	default:
		return 8
	}
}

// squashWrongPath removes every instruction younger than the resolved
// branch, frees their resources, and restores the rename maps.
func (c *CPU) squashWrongPath() {
	w := c.wrong
	bseq := w.branch.seq

	// Free the squashed destinations oldest-first (the order the
	// pre-ring implementation used, which the models' free lists
	// observe); the ROB entries themselves are popped below.
	for i, n := 0, c.rob.Len(); i < n; i++ {
		in := c.rob.At(i)
		if in.seq <= bseq || !in.hasDest {
			continue
		}
		if in.destFP {
			c.freeFP(in.destTag)
		} else {
			if c.model.TypeOf(in.destTag) == regfile.TypeLong {
				c.longOwned--
			}
			c.model.Free(in.destTag)
			c.intLive[in.destTag] = false
			c.intWrote[in.destTag] = false
			c.intDone[in.destTag], c.intWB[in.destTag] = never, never
		}
	}
	// Every queue is seq-ordered (rename inserts in program order and
	// removals preserve order), so the squashed phantoms are a suffix.
	// The issue queues, waiter lists, and LSQ drop their references
	// first; the ROB pops recycle each phantom exactly once, after no
	// queue can reach it. A phantom parks only on an older producer, and
	// every waiter on a squashed producer is itself squashed, so the
	// lists of the tags freed above end up empty.
	keepSlice := func(list []*dynInst) []*dynInst {
		for len(list) > 0 && list[len(list)-1].seq > bseq {
			if in := list[len(list)-1]; in.readyAt == never {
				c.unpark(in)
			}
			list = list[:len(list)-1]
		}
		return list
	}
	c.intIQ = keepSlice(c.intIQ)
	c.fpIQ = keepSlice(c.fpIQ)
	for c.lsq.Len() > 0 && c.lsq.Back().seq > bseq {
		c.lsq.PopBack()
	}
	// Count each phantom once: renamed phantoms live in the ROB (and
	// possibly an issue queue and the LSQ); unrenamed ones in front.
	// Squashed phantoms must leave the write-back pending set before
	// their records are recycled. (wbEarliest may stay stale-low, which
	// only costs one no-op pass.)
	keptWB := c.wbList[:0]
	for _, in := range c.wbList {
		if in.seq <= bseq {
			keptWB = append(keptWB, in)
		}
	}
	c.wbList = keptWB
	for c.rob.Len() > 0 && c.rob.Back().seq > bseq {
		c.stats.WrongPathSquashed++
		c.freeDyn(c.rob.PopBack())
	}
	// Everything still in the front queue is younger than the branch.
	for c.front.Len() > 0 {
		c.stats.WrongPathSquashed++
		c.freeDyn(c.front.PopFront())
	}

	c.intMap = w.intMap
	c.fpMap = w.fpMap
	c.wrong = nil
	c.lastFetchLine = ^uint64(0)
	c.stats.Squashes++
}

// maybeSquash fires the squash once the mispredicted branch has
// executed; called each cycle from the write-back phase.
func (c *CPU) maybeSquash() {
	if c.wrong != nil && c.wrong.branch.issued && c.wrong.branch.execDone < c.now {
		c.squashWrongPath()
	}
}

// assertNoPhantomCommit is the safety net commit consults: a phantom
// reaching the ROB head means the squash logic is broken.
func (c *CPU) assertNoPhantomCommit(in *dynInst) {
	if in.phantom {
		panic(fmt.Sprintf("pipeline: phantom instruction %d (pc %#x) reached commit", in.seq, in.pc))
	}
}
