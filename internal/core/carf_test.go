package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"carf/internal/regfile"
)

func testParams() Params {
	p := DefaultParams()
	p.NumSimple = 16
	p.NumLong = 8
	return p
}

func TestDerivedParameters(t *testing.T) {
	p := DefaultParams()
	if p.N() != 3 {
		t.Errorf("n = %d, want 3 (M=8)", p.N())
	}
	if p.M() != 6 {
		t.Errorf("m = %d, want 6 (K=48)", p.M())
	}
	if p.D() != 17 {
		t.Errorf("d = %d, want 17 (d+n=20, n=3)", p.D())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestParamValidation(t *testing.T) {
	bad := []Params{
		{NumSimple: 0, NumShort: 8, NumLong: 48, DPlusN: 20},
		{NumSimple: 112, NumShort: 6, NumLong: 48, DPlusN: 20}, // not 2^n
		{NumSimple: 112, NumShort: 8, NumLong: 1, DPlusN: 20},  // too few long
		{NumSimple: 112, NumShort: 8, NumLong: 48, DPlusN: 3},  // d+n <= n
		{NumSimple: 112, NumShort: 8, NumLong: 48, DPlusN: 63}, // too wide
		{NumSimple: 112, NumShort: 8, NumLong: 256, DPlusN: 8}, // m too big
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, p)
		}
	}
}

// writeRead writes v to a fresh tag and reads it back.
func writeRead(t *testing.T, f *File, v uint64) uint64 {
	t.Helper()
	tag, ok := f.Alloc()
	if !ok {
		t.Fatal("out of tags")
	}
	if !f.TryWrite(tag, v) {
		t.Fatalf("TryWrite(%#x) stalled", v)
	}
	got, ok := f.ReadValue(tag)
	if !ok {
		t.Fatalf("ReadValue after write failed for %#x", v)
	}
	f.Free(tag)
	return got
}

func TestSimpleValueRoundTrip(t *testing.T) {
	f := New(testParams())
	for _, v := range []uint64{0, 1, 5, 0x7ffff, ^uint64(0), ^uint64(0) - 100, 1 << 19 / 2} {
		tag, _ := f.Alloc()
		f.TryWrite(tag, v)
		if typ := f.TypeOf(tag); typ != regfile.TypeSimple {
			t.Errorf("value %#x classified %v, want simple", v, typ)
		}
		got, _ := f.ReadValue(tag)
		if got != v {
			t.Errorf("round trip %#x -> %#x", v, got)
		}
		f.Free(tag)
	}
}

func TestShortValueRoundTrip(t *testing.T) {
	f := New(testParams())
	base := uint64(0x0000_5542_1000_0000)
	f.NoteAddress(base) // installs the similarity group
	for _, off := range []uint64{0, 8, 0x1234, 0xFFFF, 0x1FFF8} {
		v := base + off
		tag, _ := f.Alloc()
		f.TryWrite(tag, v)
		if typ := f.TypeOf(tag); typ != regfile.TypeShort {
			t.Errorf("value %#x classified %v, want short", v, typ)
		}
		got, _ := f.ReadValue(tag)
		if got != v {
			t.Errorf("round trip %#x -> %#x", v, got)
		}
		f.Free(tag)
	}
}

func TestLongValueRoundTrip(t *testing.T) {
	f := New(testParams())
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		v := r.Uint64() | 1<<62 // guaranteed non-simple high bits
		tag, _ := f.Alloc()
		if !f.TryWrite(tag, v) {
			t.Fatal("long write stalled with free entries")
		}
		if typ := f.TypeOf(tag); typ != regfile.TypeLong {
			t.Errorf("value %#x classified %v, want long", v, typ)
		}
		got, _ := f.ReadValue(tag)
		if got != v {
			t.Errorf("round trip %#x -> %#x", v, got)
		}
		f.Free(tag)
	}
}

// TestReadBackIdentityProperty is the paper's core invariant: every
// value accepted by the organization reconstructs exactly, whatever its
// classification. Addresses are pre-installed so all three types occur.
func TestReadBackIdentityProperty(t *testing.T) {
	f := New(testParams())
	f.NoteAddress(0x0000_5542_1000_0000)
	f.NoteAddress(0x0000_7FFF_F7E0_0000)
	check := func(raw uint64, mode uint8) bool {
		var v uint64
		switch mode % 4 {
		case 0: // simple-ish
			v = signExtend(raw&0xFFFFF, 20)
		case 1: // heap-like short
			v = 0x0000_5542_1000_0000 + raw&0xFFFFF
		case 2: // stack-like short
			v = 0x0000_7FFF_F7E0_0000 - raw&0xFFFF
		default: // arbitrary
			v = raw
		}
		tag, ok := f.Alloc()
		if !ok {
			return false
		}
		defer f.Free(tag)
		if !f.TryWrite(tag, v) {
			// Long file exhausted is a legal stall, not a failure; the
			// deferred Free keeps the file draining.
			return true
		}
		got, ok := f.ReadValue(tag)
		return ok && got == v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestCAMShortRoundTrip(t *testing.T) {
	p := testParams()
	p.CAMShort = true
	f := New(p)
	// CAM variant: groups land in arbitrary free slots; collisions in
	// the direct-mapped index don't matter.
	bases := []uint64{0x5542_1000_0000, 0x5542_1010_0000, 0x7FFF_F7E0_0000}
	for _, b := range bases {
		f.NoteAddress(b)
	}
	for _, b := range bases {
		v := b + 0x1ABC
		tag, _ := f.Alloc()
		f.TryWrite(tag, v)
		if typ := f.TypeOf(tag); typ != regfile.TypeShort {
			t.Errorf("CAM: value %#x classified %v, want short", v, typ)
		}
		got, _ := f.ReadValue(tag)
		if got != v {
			t.Errorf("CAM round trip %#x -> %#x", v, got)
		}
		f.Free(tag)
	}
	if f.Name() != "content-aware(cam)" {
		t.Errorf("name = %q", f.Name())
	}
}

func TestDirectMappedCollisionFallsToLong(t *testing.T) {
	f := New(testParams())
	d := uint(f.Params().D())
	// Two groups with identical index bits [d, d+n) but different high
	// bits: the second can't install and its values become long.
	a := uint64(0x5542_1000_0000)
	b := a + 1<<uint(f.Params().DPlusN) // same low d+n bits, different hi
	f.NoteAddress(a)
	f.NoteAddress(b)
	_ = d
	st := f.Stats()
	if st.ShortInstalls != 1 || st.ShortInstallFails != 1 {
		t.Errorf("installs=%d fails=%d, want 1/1", st.ShortInstalls, st.ShortInstallFails)
	}
	tag, _ := f.Alloc()
	f.TryWrite(tag, b+4)
	if typ := f.TypeOf(tag); typ != regfile.TypeLong {
		t.Errorf("collided group value classified %v, want long", typ)
	}
	got, _ := f.ReadValue(tag)
	if got != b+4 {
		t.Errorf("round trip %#x -> %#x", b+4, got)
	}
}

func TestLongExhaustionAndRecovery(t *testing.T) {
	f := New(testParams()) // 8 long entries
	r := rand.New(rand.NewSource(7))
	var tags []int
	for i := 0; i < 8; i++ {
		tag, _ := f.Alloc()
		if !f.TryWrite(tag, r.Uint64()|1<<62) {
			t.Fatalf("write %d stalled early", i)
		}
		tags = append(tags, tag)
	}
	if f.FreeLong() != 0 {
		t.Fatalf("free long = %d, want 0", f.FreeLong())
	}
	tag, _ := f.Alloc()
	if f.TryWrite(tag, r.Uint64()|1<<62) {
		t.Fatal("write should stall with no free long entries")
	}
	if f.Stats().RecoveryEvents != 1 {
		t.Errorf("recovery events = %d", f.Stats().RecoveryEvents)
	}
	// A commit frees one; the retried write must now succeed.
	f.Free(tags[0])
	v := r.Uint64() | 1<<62
	if !f.TryWrite(tag, v) {
		t.Fatal("retried write should succeed after a free")
	}
	got, _ := f.ReadValue(tag)
	if got != v {
		t.Errorf("post-recovery round trip %#x -> %#x", v, got)
	}
}

func TestForceWriteOverflow(t *testing.T) {
	f := New(testParams())
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		tag, _ := f.Alloc()
		f.TryWrite(tag, r.Uint64()|1<<62)
	}
	tag, _ := f.Alloc()
	v := r.Uint64() | 1<<62
	f.ForceWrite(tag, v)
	if f.Stats().OverflowSpills != 1 {
		t.Errorf("overflow spills = %d", f.Stats().OverflowSpills)
	}
	got, ok := f.ReadValue(tag)
	if !ok || got != v {
		t.Errorf("overflow round trip %#x -> %#x (%v)", v, got, ok)
	}
	f.Free(tag) // must not corrupt the real free list
	if f.FreeLong() != 0 {
		t.Errorf("freeing an overflow entry changed the long free list")
	}
}

func TestLongStallThreshold(t *testing.T) {
	f := New(testParams())
	if f.LongStall(4) {
		t.Error("fresh file should not long-stall below threshold")
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		tag, _ := f.Alloc()
		f.TryWrite(tag, r.Uint64()|1<<62)
	}
	if !f.LongStall(4) {
		t.Error("4 free entries with threshold 4 should stall")
	}
}

func TestRobIntervalReclamation(t *testing.T) {
	f := New(testParams())
	addr := uint64(0x5542_1000_0000)
	f.NoteAddress(addr)

	// Write a short value and keep its tag live and architectural.
	tag, _ := f.Alloc()
	f.TryWrite(tag, addr+8)

	// Intervals pass with the tag architectural: entry must stay.
	for i := 0; i < 4; i++ {
		f.OnRobInterval([]int{tag})
	}
	if got, _ := f.ReadValue(tag); got != addr+8 {
		t.Fatalf("short entry reclaimed while architecturally referenced")
	}
	if f.Stats().ShortFrees != 0 {
		t.Errorf("short frees = %d during live reference", f.Stats().ShortFrees)
	}

	// Free the tag; after two idle intervals the entry is reclaimed.
	f.Free(tag)
	f.OnRobInterval(nil)
	f.OnRobInterval(nil)
	if f.Stats().ShortFrees != 1 {
		t.Errorf("short frees = %d after idle intervals, want 1", f.Stats().ShortFrees)
	}
	// The slot is reusable for a different group now.
	other := addr + 2<<uint(f.Params().DPlusN) // same index, different hi
	f.NoteAddress(other)
	tag2, _ := f.Alloc()
	f.TryWrite(tag2, other+16)
	if got, _ := f.ReadValue(tag2); got != other+16 {
		t.Errorf("reused slot round trip failed: %#x", got)
	}
}

func TestAccessAccounting(t *testing.T) {
	f := New(testParams())
	f.NoteAddress(0x5542_1000_0000)
	tagS, _ := f.Alloc()
	f.TryWrite(tagS, 7) // simple
	tagH, _ := f.Alloc()
	f.TryWrite(tagH, 0x5542_1000_0040) // short
	tagL, _ := f.Alloc()
	f.TryWrite(tagL, 0xDEAD_BEEF_CAFE_F00D) // long

	f.Read(tagS)
	f.Read(tagH)
	f.Read(tagL)

	st := f.Stats()
	if st.ReadsByType != [3]uint64{1, 1, 1} {
		t.Errorf("reads by type = %v", st.ReadsByType)
	}
	if st.WritesByType != [3]uint64{1, 1, 1} {
		t.Errorf("writes by type = %v", st.WritesByType)
	}

	files := f.Files()
	if len(files) != 3 {
		t.Fatalf("files = %d", len(files))
	}
	byName := map[string]regfile.FileActivity{}
	for _, fa := range files {
		byName[fa.Spec.Name] = fa
	}
	// Simple file: read on every operand read, written on every write.
	if byName["simple"].Reads != 3 || byName["simple"].Writes != 3 {
		t.Errorf("simple activity = %+v", byName["simple"])
	}
	// Short file: 1 install + WR1 compare per write (3) + 1 operand read.
	if byName["short"].Writes != 1 {
		t.Errorf("short writes = %d", byName["short"].Writes)
	}
	if byName["short"].Reads != 4 {
		t.Errorf("short reads = %d (3 WR1 compares + 1 operand)", byName["short"].Reads)
	}
	if byName["long"].Reads != 1 || byName["long"].Writes != 1 {
		t.Errorf("long activity = %+v", byName["long"])
	}
}

func TestFileSpecWidths(t *testing.T) {
	f := New(DefaultParams()) // d=17, n=3, m=6
	byName := map[string]regfile.FileSpec{}
	for _, fa := range f.Files() {
		byName[fa.Spec.Name] = fa.Spec
	}
	if w := byName["simple"].WidthBits; w != 22 { // 2 + d+n
		t.Errorf("simple width = %d, want 22", w)
	}
	if w := byName["short"].WidthBits; w != 44 { // 64-d-n
		t.Errorf("short width = %d, want 44", w)
	}
	if w := byName["long"].WidthBits; w != 50 { // 64-(d+n)+m
		t.Errorf("long width = %d, want 50", w)
	}
	if byName["short"].ReadPorts != 8+6 {
		t.Errorf("short read ports = %d, want 14 (8 + 6 WR1 compare)", byName["short"].ReadPorts)
	}
}

func TestAllocExhaustionAndReset(t *testing.T) {
	f := New(testParams())
	for i := 0; i < 16; i++ {
		if _, ok := f.Alloc(); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if _, ok := f.Alloc(); ok {
		t.Error("alloc past capacity should fail")
	}
	f.Reset()
	if _, ok := f.Alloc(); !ok {
		t.Error("alloc after reset should succeed")
	}
	if f.Stats().RobIntervals != 0 {
		t.Error("stats survived reset")
	}
}

func TestSampleLiveLong(t *testing.T) {
	f := New(testParams())
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 4; i++ {
		tag, _ := f.Alloc()
		f.TryWrite(tag, r.Uint64()|1<<62)
	}
	f.SampleLiveLong()
	f.SampleLiveLong()
	if got := f.Stats().AvgLiveLong(); got != 4 {
		t.Errorf("avg live long = %v, want 4", got)
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		v    uint64
		w    uint
		want uint64
	}{
		{0xFFFFF, 20, ^uint64(0)},
		{0x7FFFF, 20, 0x7FFFF},
		{0x80000, 20, ^uint64(0) &^ 0x7FFFF},
		{0, 20, 0},
		{1, 1, ^uint64(0)},
	}
	for _, c := range cases {
		if got := signExtend(c.v, c.w); got != c.want {
			t.Errorf("signExtend(%#x, %d) = %#x, want %#x", c.v, c.w, got, c.want)
		}
	}
}

func TestDoubleFreeIsLogged(t *testing.T) {
	f := New(testParams())
	tag, _ := f.Alloc()
	f.Free(tag)
	f.Free(tag)
	faults := f.Faults()
	if len(faults) == 0 {
		t.Fatal("double free left no fault-log entry")
	}
	if !strings.Contains(faults[0], "double free") {
		t.Errorf("fault log = %q, want a double-free report", faults[0])
	}
}

// TestCheckInvariantsAllocsNothing: an invariant sweep over a healthy
// file reuses its scratch vectors, so after one warm-up call a sweep
// allocates nothing.
func TestCheckInvariantsAllocsNothing(t *testing.T) {
	f := New(DefaultParams())
	for _, v := range []uint64{3, 0x5542_1000_0040, 0x5542_1000_0080, 0x9E37_79B9_7F4A_7C15} {
		tag, _ := f.Alloc()
		f.TryWrite(tag, v)
	}
	if vs := f.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("healthy file reports violations: %+v", vs)
	}
	if n := testing.AllocsPerRun(100, func() { f.CheckInvariants() }); n != 0 {
		t.Errorf("CheckInvariants allocates %v times per sweep, want 0", n)
	}
}
