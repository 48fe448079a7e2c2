package vm

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"carf/internal/isa"
)

func TestMemoryReadWrite(t *testing.T) {
	var m Memory
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Fatalf("read back %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Errorf("low word %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Errorf("high word %#x", got)
	}
	if got := m.Read(0x1003, 1); got != 0x55 {
		t.Errorf("byte 3 %#x", got)
	}
}

func TestMemoryUnmappedReadsZero(t *testing.T) {
	var m Memory
	if got := m.Read(0xdeadbeef000, 8); got != 0 {
		t.Errorf("unmapped read = %#x, want 0", got)
	}
	if m.MappedPages() != 0 {
		t.Errorf("read allocated %d pages", m.MappedPages())
	}
}

func TestMemoryCrossPage(t *testing.T) {
	var m Memory
	addr := uint64(pageSize - 3) // spans a page boundary
	m.Write(addr, 8, 0xAABBCCDDEEFF0011)
	if got := m.Read(addr, 8); got != 0xAABBCCDDEEFF0011 {
		t.Fatalf("cross-page read back %#x", got)
	}
	if m.MappedPages() != 2 {
		t.Errorf("expected 2 pages, got %d", m.MappedPages())
	}
}

// StoreBytes copies a page at a time; every span must read back exactly
// as a byte-by-byte store would leave memory, with the same pages mapped.
func TestStoreBytesSpans(t *testing.T) {
	cases := []struct {
		name string
		addr uint64
		n    int
	}{
		{"empty", 0x1000, 0},
		{"one byte", 0x1234, 1},
		{"unaligned within a page", 0x2003, 100},
		{"whole page", 0x3000, pageSize},
		{"crosses one boundary", 2*pageSize - 5, 20},
		{"unaligned, crosses one boundary", 5*pageSize + 7, pageSize},
		{"crosses two boundaries", 8*pageSize - 3, pageSize + 10},
		{"wraps the address space", ^uint64(0) - 2, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := make([]byte, c.n)
			for i := range b {
				b[i] = byte(i*7 + 1)
			}
			var got, want Memory
			got.StoreBytes(c.addr, b)
			for i, v := range b {
				want.StoreByte(c.addr+uint64(i), v)
			}
			// Read back a margin on both sides: nothing outside the
			// span may change.
			const margin = 16
			from, n := c.addr-margin, c.n+2*margin
			if g, w := got.LoadBytes(from, n), want.LoadBytes(from, n); string(g) != string(w) {
				t.Errorf("StoreBytes(%#x, %d bytes) reads back differently from a byte-wise store", c.addr, c.n)
			}
			if got.MappedPages() != want.MappedPages() {
				t.Errorf("%d pages mapped, byte-wise store maps %d", got.MappedPages(), want.MappedPages())
			}
		})
	}
}

// Property: read-after-write returns the written value (masked to size)
// at arbitrary addresses and sizes.
func TestMemoryReadAfterWriteProperty(t *testing.T) {
	sizes := []int{1, 2, 4, 8}
	f := func(addr uint64, val uint64, sizeIdx uint8) bool {
		var m Memory
		size := sizes[int(sizeIdx)%len(sizes)]
		addr &= 1<<40 - 1 // keep the page map small
		m.Write(addr, size, val)
		want := val
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// buildAndRun assembles a tiny program, runs it to HALT, and returns the
// machine for inspection.
func buildAndRun(t *testing.T, code []isa.Inst) *Machine {
	t.Helper()
	code = append(code, isa.Inst{Op: isa.HALT})
	prog := NewProgram("t", 0x4000, code, nil, nil)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(prog)
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Fatal("program did not halt")
	}
	return m
}

func li(rd isa.Reg, v int64) isa.Inst { return isa.Inst{Op: isa.LIMM, Rd: rd, Imm: v} }

func TestIntALUOps(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
		want uint64
	}{
		{isa.ADD, 5, 7, 12},
		{isa.SUB, 5, 7, ^uint64(1)},
		{isa.AND, 0b1100, 0b1010, 0b1000},
		{isa.OR, 0b1100, 0b1010, 0b1110},
		{isa.XOR, 0b1100, 0b1010, 0b0110},
		{isa.SLL, 1, 12, 4096},
		{isa.SRL, -8, 1, ^uint64(7) >> 1},
		{isa.SRA, -8, 1, ^uint64(3)},
		{isa.SLT, -1, 0, 1},
		{isa.SLT, 1, 0, 0},
		{isa.SLTU, 1, 0, 0},
		{isa.SLTU, 0, 1, 1},
		{isa.MUL, -3, 7, ^uint64(20)},
		{isa.DIV, -21, 7, ^uint64(2)},
		{isa.DIV, 21, 0, ^uint64(0)},
		{isa.REM, -22, 7, ^uint64(0)},
		{isa.REM, 22, 0, 22},
		{isa.DIV, math.MinInt64, -1, 1 << 63},
		{isa.REM, math.MinInt64, -1, 0},
	}
	for _, c := range cases {
		m := buildAndRun(t, []isa.Inst{
			li(1, c.a),
			li(2, c.b),
			{Op: c.op, Rd: 3, Rs1: 1, Rs2: 2},
		})
		if m.X[3] != c.want {
			t.Errorf("%s %d,%d = %#x, want %#x", c.op, c.a, c.b, m.X[3], c.want)
		}
	}
}

func TestMULHU(t *testing.T) {
	m := buildAndRun(t, []isa.Inst{
		li(1, -1), // 0xffff...
		li(2, -1),
		{Op: isa.MULHU, Rd: 3, Rs1: 1, Rs2: 2},
	})
	if m.X[3] != ^uint64(0)-1 { // (2^64-1)^2 >> 64 = 2^64-2
		t.Errorf("mulhu = %#x, want %#x", m.X[3], ^uint64(0)-1)
	}
}

func TestImmediateOps(t *testing.T) {
	m := buildAndRun(t, []isa.Inst{
		li(1, 100),
		{Op: isa.ADDI, Rd: 2, Rs1: 1, Imm: -30},
		{Op: isa.ANDI, Rd: 3, Rs1: 1, Imm: 0x6c},
		{Op: isa.ORI, Rd: 4, Rs1: 1, Imm: 3},
		{Op: isa.XORI, Rd: 5, Rs1: 1, Imm: 0xff},
		{Op: isa.SLLI, Rd: 6, Rs1: 1, Imm: 4},
		{Op: isa.SRLI, Rd: 7, Rs1: 1, Imm: 2},
		{Op: isa.SRAI, Rd: 8, Rs1: 1, Imm: 2},
		{Op: isa.SLTI, Rd: 9, Rs1: 1, Imm: 200},
		{Op: isa.SLTIU, Rd: 10, Rs1: 1, Imm: 5},
	})
	want := map[isa.Reg]uint64{
		2: 70, 3: 100 & 0x6c, 4: 100 | 3, 5: 100 ^ 0xff,
		6: 1600, 7: 25, 8: 25, 9: 1, 10: 0,
	}
	for r, w := range want {
		if m.X[r] != w {
			t.Errorf("x%d = %d, want %d", r, m.X[r], w)
		}
	}
}

func TestZeroRegisterStaysZero(t *testing.T) {
	m := buildAndRun(t, []isa.Inst{
		li(1, 55),
		{Op: isa.ADD, Rd: 0, Rs1: 1, Rs2: 1},
		{Op: isa.ADD, Rd: 2, Rs1: 0, Rs2: 1},
	})
	if m.X[0] != 0 {
		t.Errorf("x0 = %d", m.X[0])
	}
	if m.X[2] != 55 {
		t.Errorf("x2 = %d, want 55", m.X[2])
	}
}

func TestLoadsAndStores(t *testing.T) {
	m := buildAndRun(t, []isa.Inst{
		li(1, 0x2000),
		li(2, -2), // 0xfffffffffffffffe
		{Op: isa.ST, Rs1: 1, Rs2: 2, Imm: 0},
		{Op: isa.LD, Rd: 3, Rs1: 1, Imm: 0},
		{Op: isa.LW, Rd: 4, Rs1: 1, Imm: 0},
		{Op: isa.LWU, Rd: 5, Rs1: 1, Imm: 0},
		{Op: isa.LB, Rd: 6, Rs1: 1, Imm: 0},
		{Op: isa.LBU, Rd: 7, Rs1: 1, Imm: 0},
		{Op: isa.SW, Rs1: 1, Rs2: 2, Imm: 16},
		{Op: isa.LD, Rd: 8, Rs1: 1, Imm: 16},
		{Op: isa.SB, Rs1: 1, Rs2: 2, Imm: 32},
		{Op: isa.LD, Rd: 9, Rs1: 1, Imm: 32},
	})
	checks := map[isa.Reg]uint64{
		3: ^uint64(1),
		4: ^uint64(1), // sign-extended
		5: 0xfffffffe,
		6: ^uint64(1),
		7: 0xfe,
		8: 0xfffffffe,
		9: 0xfe,
	}
	for r, w := range checks {
		if m.X[r] != w {
			t.Errorf("x%d = %#x, want %#x", r, m.X[r], w)
		}
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// sum = 0; for i = 0; i != 10; i++ { sum += i }
	loopBody := []isa.Inst{
		li(1, 0),                                // i
		li(2, 0),                                // sum
		li(3, 10),                               // limit
		{Op: isa.ADD, Rd: 2, Rs1: 2, Rs2: 1},    // sum += i
		{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: 1},   // i++
		{Op: isa.BNE, Rs1: 1, Rs2: 3, Imm: -24}, // back to sum += i
	}
	m := buildAndRun(t, loopBody)
	if m.X[2] != 45 {
		t.Errorf("sum = %d, want 45", m.X[2])
	}
}

func TestJALAndJALR(t *testing.T) {
	// call a function that doubles x1; return; halt.
	code := []isa.Inst{
		li(1, 21),
		{Op: isa.JAL, Rd: 31, Imm: 8},          // call: skip the halt
		{Op: isa.HALT},                         // return lands here
		{Op: isa.ADD, Rd: 1, Rs1: 1, Rs2: 1},   // function body
		{Op: isa.JALR, Rd: 0, Rs1: 31, Imm: 0}, // return
	}
	prog := NewProgram("t", 0x4000, code, nil, nil)
	m := New(prog)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Fatal("did not halt")
	}
	if m.X[1] != 42 {
		t.Errorf("x1 = %d, want 42", m.X[1])
	}
	if m.X[31] == 0 {
		t.Error("link register not written")
	}
}

func TestFPOps(t *testing.T) {
	fbits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	m := buildAndRun(t, []isa.Inst{
		li(1, fbits(3.5)),
		li(2, fbits(-2.0)),
		{Op: isa.FMVDX, Rd: 1, Rs1: 1},
		{Op: isa.FMVDX, Rd: 2, Rs1: 2},
		{Op: isa.FADD, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.FSUB, Rd: 4, Rs1: 1, Rs2: 2},
		{Op: isa.FMUL, Rd: 5, Rs1: 1, Rs2: 2},
		{Op: isa.FDIV, Rd: 6, Rs1: 1, Rs2: 2},
		{Op: isa.FABS, Rd: 7, Rs1: 2},
		{Op: isa.FNEG, Rd: 8, Rs1: 1},
		{Op: isa.FMIN, Rd: 9, Rs1: 1, Rs2: 2},
		{Op: isa.FMAX, Rd: 10, Rs1: 1, Rs2: 2},
		{Op: isa.FLT, Rd: 11, Rs1: 2, Rs2: 1},
		{Op: isa.FLE, Rd: 12, Rs1: 1, Rs2: 1},
		{Op: isa.FEQ, Rd: 13, Rs1: 1, Rs2: 2},
	})
	fp := func(r isa.Reg) float64 { return math.Float64frombits(m.F[r]) }
	if fp(3) != 1.5 || fp(4) != 5.5 || fp(5) != -7.0 || fp(6) != -1.75 {
		t.Errorf("arith: %v %v %v %v", fp(3), fp(4), fp(5), fp(6))
	}
	if fp(7) != 2.0 || fp(8) != -3.5 || fp(9) != -2.0 || fp(10) != 3.5 {
		t.Errorf("unary/minmax: %v %v %v %v", fp(7), fp(8), fp(9), fp(10))
	}
	if m.X[11] != 1 || m.X[12] != 1 || m.X[13] != 0 {
		t.Errorf("compares: %d %d %d", m.X[11], m.X[12], m.X[13])
	}
}

func TestFPConversionsAndMem(t *testing.T) {
	m := buildAndRun(t, []isa.Inst{
		li(1, -9),
		{Op: isa.FCVTDL, Rd: 1, Rs1: 1}, // f1 = -9.0
		{Op: isa.FCVTLD, Rd: 2, Rs1: 1}, // x2 = -9
		li(3, 0x3000),
		{Op: isa.FSD, Rs1: 3, Rs2: 1, Imm: 0},
		{Op: isa.FLD, Rd: 4, Rs1: 3, Imm: 0},
		{Op: isa.FMVXD, Rd: 5, Rs1: 4},
	})
	if int64(m.X[2]) != -9 {
		t.Errorf("fcvt.l.d = %d", int64(m.X[2]))
	}
	if m.X[5] != math.Float64bits(-9.0) {
		t.Errorf("fp round trip through memory = %#x", m.X[5])
	}
	m2 := buildAndRun(t, []isa.Inst{
		li(1, 2),
		{Op: isa.FCVTDL, Rd: 1, Rs1: 1},
		{Op: isa.FSQRT, Rd: 2, Rs1: 1},
		{Op: isa.FCVTDL, Rd: 3, Rs1: 1},        // f3 = 2.0
		{Op: isa.FMADD, Rd: 3, Rs1: 2, Rs2: 2}, // f3 += sqrt2*sqrt2
		{Op: isa.FCVTLD, Rd: 4, Rs1: 3},
	})
	if got := int64(m2.X[4]); got != 4 {
		t.Errorf("2 + sqrt2^2 truncated = %d, want 4", got)
	}
}

func TestFCVTLDEdgeCases(t *testing.T) {
	if toInt64(math.NaN()) != 0 {
		t.Error("NaN should convert to 0")
	}
	if toInt64(math.Inf(1)) != math.MaxInt64 {
		t.Error("+inf should saturate")
	}
	if toInt64(math.Inf(-1)) != math.MinInt64 {
		t.Error("-inf should saturate")
	}
	if toInt64(-3.99) != -3 {
		t.Error("conversion should truncate toward zero")
	}
}

func TestProgramValidateCatchesBadTarget(t *testing.T) {
	code := []isa.Inst{
		{Op: isa.BEQ, Rs1: 0, Rs2: 0, Imm: 3}, // lands mid-instruction
		{Op: isa.HALT},
	}
	prog := NewProgram("bad", 0x4000, code, nil, nil)
	if err := prog.Validate(); err == nil {
		t.Error("expected validation error for misaligned branch target")
	}
}

func TestProgramDataSegments(t *testing.T) {
	prog := NewProgram("d", 0x4000,
		[]isa.Inst{
			li(1, 0x9000),
			{Op: isa.LD, Rd: 2, Rs1: 1, Imm: 0},
			{Op: isa.HALT},
		},
		[]Segment{{Addr: 0x9000, Bytes: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		nil)
	m := New(prog)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.X[2] != 0x0807060504030201 {
		t.Errorf("x2 = %#x", m.X[2])
	}
}

// TestImageCopyOnWrite: machines on one program share its initial image
// copy-on-write. Two machines run concurrently (meaningful under -race),
// each storing its own value into two of the image's three pages;
// neither sees the other's stores, a third machine built afterwards
// sees only the image, and the image bytes themselves never change.
func TestImageCopyOnWrite(t *testing.T) {
	const base = 0x9F00 // the segment spans two pages and part of a third
	data := make([]byte, 2*pageSize)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	// x1 walks the segment a page at a time, storing x2 at each stop and
	// loading it back into x3.
	prog := NewProgram("cow", 0x4000, []isa.Inst{
		li(1, base+8),
		li(4, base+8+2*pageSize),
		{Op: isa.ST, Rs1: 1, Rs2: 2, Imm: 0},
		{Op: isa.LD, Rd: 3, Rs1: 1, Imm: 0},
		{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: pageSize},
		{Op: isa.BLT, Rs1: 1, Rs2: 4, Imm: -4 * 8},
		{Op: isa.HALT},
	}, []Segment{{Addr: base, Bytes: data}}, nil)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	image := map[uint64][pageSize]byte{}
	for pn, f := range prog.image {
		image[pn] = *f.p
	}
	if len(image) != 3 {
		t.Fatalf("image maps %d pages, want 3", len(image))
	}

	vals := []uint64{0x1111_2222_3333_4444, 0x5555_6666_7777_8888}
	ms := make([]*Machine, len(vals))
	var wg sync.WaitGroup
	for i := range ms {
		ms[i] = New(prog)
		ms[i].X[2] = vals[i]
		wg.Add(1)
		go func(m *Machine) {
			defer wg.Done()
			if _, err := m.Run(1000); err != nil || !m.Halted {
				t.Errorf("run: halted %v, err %v", m.Halted, err)
			}
		}(ms[i])
	}
	wg.Wait()

	fresh := New(prog)
	for i, m := range ms {
		for a := uint64(base + 8); a < base+2*pageSize; a += pageSize {
			if got := m.Mem.Read(a, 8); got != vals[i] {
				t.Errorf("machine %d reads %#x at %#x, want its own store %#x", i, got, a, vals[i])
			}
		}
		if m.X[3] != vals[i] {
			t.Errorf("machine %d loaded %#x, want %#x", i, m.X[3], vals[i])
		}
		if got := m.Mem.MappedPages(); got != 3 {
			t.Errorf("machine %d maps %d pages, want 3 (shared and private once each)", i, got)
		}
	}
	if got := fresh.Mem.LoadBytes(base, len(data)); !bytes.Equal(got, data) {
		t.Error("a fresh machine does not see the program's initial image")
	}
	for pn, f := range prog.image {
		if !f.shared || *f.p != image[pn] {
			t.Errorf("image page %#x changed", pn)
		}
	}
}

// TestReleaseRecyclesPages: a released memory's private pages and its
// page map serve later writes and machines without showing their old
// bytes. Each of 100 rounds dirties one copied image page and a run of
// fresh pages with junk, releases them, and checks that the next
// machine on the program reads the image's bytes and zeros elsewhere —
// also around a single word written to a reused page — while the image
// never changes and the page pool never outgrows its cap.
func TestReleaseRecyclesPages(t *testing.T) {
	const base = 0x9F00 // the segment spans two pages and part of a third
	const fresh = 0x40_0000
	data := make([]byte, 2*pageSize)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	prog := NewProgram("release", 0x4000, []isa.Inst{{Op: isa.HALT}}, []Segment{{Addr: base, Bytes: data}}, nil)
	image := map[uint64][pageSize]byte{}
	for pn, f := range prog.image {
		image[pn] = *f.p
	}
	freeLen := func() int { return pagePool.Len(pageSize) }
	junk := bytes.Repeat([]byte{0xA5}, 3*pageSize)
	zeros := make([]byte, len(junk))
	for round := 0; round < 100; round++ {
		m := New(prog)
		if got := m.Mem.LoadBytes(base, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("round %d: a new machine does not read the program's image", round)
		}
		if got := m.Mem.LoadBytes(fresh, len(junk)); !bytes.Equal(got, zeros) {
			t.Fatalf("round %d: unmapped addresses do not read zero", round)
		}
		const word = base + pageSize
		m.Mem.Write(word, 8, 0xFFFF_FFFF_FFFF_FFFF)
		want := append([]byte(nil), data...)
		copy(want[word-base:], bytes.Repeat([]byte{0xFF}, 8))
		if got := m.Mem.LoadBytes(base, len(data)); !bytes.Equal(got, want) {
			t.Fatalf("round %d: a copied image page does not hold the image around the stored word", round)
		}
		m.Mem.Write(fresh+8, 8, uint64(round)+1)
		if m.Mem.Read(fresh, 8) != 0 || m.Mem.Read(fresh+16, 8) != 0 {
			t.Fatalf("round %d: a fresh page shows bytes around the stored word", round)
		}
		m.Mem.StoreBytes(fresh+pageSize, junk)
		m.Mem.Release()
		if n := m.Mem.MappedPages(); n != 0 {
			t.Fatalf("round %d: %d pages mapped after Release", round, n)
		}
		if n := freeLen(); n == 0 || n > keepPages {
			t.Fatalf("round %d: page pool holds %d pages, want 1..%d", round, n, keepPages)
		}
	}
	for pn, f := range prog.image {
		if !f.shared || *f.p != image[pn] {
			t.Errorf("image page %#x changed", pn)
		}
	}

	var big Memory
	for i := 0; i < 2*keepPages; i++ {
		big.StoreByte(fresh+uint64(i)*pageSize, 1)
	}
	big.Release()
	if n := freeLen(); n > keepPages {
		t.Errorf("page pool holds %d pages, cap %d", n, keepPages)
	}
}

func TestProgramInitRegs(t *testing.T) {
	prog := NewProgram("r", 0x4000,
		[]isa.Inst{{Op: isa.HALT}},
		nil, map[isa.Reg]uint64{29: 0x7fff0000, 0: 99})
	m := New(prog)
	if m.X[29] != 0x7fff0000 {
		t.Errorf("init reg x29 = %#x", m.X[29])
	}
	if m.X[0] != 0 {
		t.Error("x0 must not be seeded")
	}
}

func TestRunLimit(t *testing.T) {
	// Infinite loop: JAL back to itself.
	code := []isa.Inst{{Op: isa.JAL, Rd: 0, Imm: -8}}
	prog := NewProgram("loop", 0x4000, code, nil, nil)
	m := New(prog)
	n, err := m.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("ran %d instructions, want 500", n)
	}
	if m.Halted {
		t.Error("should not have halted")
	}
}

func TestStepAfterHalt(t *testing.T) {
	m := buildAndRun(t, nil)
	if _, _, err := m.Step(); err == nil {
		t.Error("step after halt should error")
	}
}

func TestEffectReporting(t *testing.T) {
	prog := NewProgram("e", 0x4000, []isa.Inst{
		li(1, 0x2000),
		li(2, 77),
		{Op: isa.ST, Rs1: 1, Rs2: 2, Imm: 8},
		{Op: isa.LD, Rd: 3, Rs1: 1, Imm: 8},
		{Op: isa.BEQ, Rs1: 2, Rs2: 3, Imm: 0},
		{Op: isa.HALT},
	}, nil, nil)
	m := New(prog)

	_, eff, _ := m.Step() // limm
	if !eff.WritesReg || eff.Rd != 1 || eff.RdValue != 0x2000 {
		t.Errorf("limm effect: %+v", eff)
	}
	m.Step()
	_, eff, _ = m.Step() // st
	if !eff.Mem || !eff.Store || eff.Addr != 0x2008 || eff.StoreVal != 77 || eff.Size != 8 {
		t.Errorf("store effect: %+v", eff)
	}
	_, eff, _ = m.Step() // ld
	if !eff.Mem || eff.Store || eff.Addr != 0x2008 || eff.RdValue != 77 {
		t.Errorf("load effect: %+v", eff)
	}
	_, eff, _ = m.Step() // beq (taken, offset 0 → falls through to next)
	if !eff.Branch || !eff.Taken {
		t.Errorf("branch effect: %+v", eff)
	}
	_, eff, _ = m.Step() // halt
	if !eff.Halt {
		t.Errorf("halt effect: %+v", eff)
	}
}

// TestEvalMatchesExecute cross-checks the pure evaluator against the
// architectural machine for every opcode it covers, on random operands.
func TestEvalMatchesExecute(t *testing.T) {
	rng := uint64(0xABCD)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	prog := NewProgram("eval", 0x4000, []isa.Inst{{Op: isa.HALT}}, nil, nil)
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		for trial := 0; trial < 50; trial++ {
			a, b := next(), next()
			inst := isa.Inst{Op: op, Rd: 3, Rs1: 1, Rs2: 2}
			if op.HasImm() {
				inst.Imm = int64(a>>30) - (1 << 33)
			}
			got, ok := Eval(inst, a, b)
			if op.IsMem() || op.IsControl() || op == isa.NOP || op == isa.HALT || op == isa.FMADD {
				if ok {
					t.Fatalf("%s: Eval claimed to cover an uncovered opcode", op)
				}
				break
			}
			if !ok {
				t.Fatalf("%s: Eval does not cover a register-writing ALU/FP opcode", op)
			}
			m := New(prog)
			m.X[1], m.X[2] = a, b
			m.F[1], m.F[2] = a, b
			eff, err := m.Execute(inst)
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if !eff.WritesReg {
				t.Fatalf("%s: machine wrote no register", op)
			}
			if got != eff.RdValue {
				// NaN payloads may differ legally only if we computed
				// differently — require exact equality.
				t.Fatalf("%s(a=%#x, b=%#x, imm=%d): Eval %#x, Execute %#x",
					op, a, b, inst.Imm, got, eff.RdValue)
			}
		}
	}
}
