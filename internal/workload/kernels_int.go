package workload

import (
	"fmt"
	"sort"

	"carf/internal/isa"
	"carf/internal/vm"
)

// Kernel is one benchmark program plus the architecturally-expected
// result: when the program halts, integer register x28 must hold
// Expected. Tests and the simulator's self-check use this to verify that
// functional execution (and therefore every timing experiment built on
// it) computed the right answer.
type Kernel struct {
	Name     string
	FP       bool // member of the floating-point suite
	Prog     *vm.Program
	Expected uint64
}

// ResultReg is the register kernels leave their checksum in.
const ResultReg = isa.Reg(28)

// CheckResult compares the checksum m, a machine that ran k's program
// to HALT, holds in ResultReg with Expected. Every run kind that runs a
// kernel to completion calls it, so a wrong answer fails the run.
func (k Kernel) CheckResult(m *vm.Machine) error {
	if got := m.X[ResultReg]; got != k.Expected {
		return fmt.Errorf("%s computed %#x, expected %#x", k.Name, got, k.Expected)
	}
	return nil
}

const hashConst uint64 = 0x9E3779B97F4A7C15

// asI64 reinterprets a uint64 bit pattern as int64 at runtime (a direct
// constant conversion would not compile for values above MaxInt64).
func asI64(u uint64) int64 { return int64(u) }

// mixedValue produces a data value from the two populations common in
// integer codes: small constants (25%) and 32-bit quantities.
func mixedValue(rng *RNG) uint64 {
	v := rng.Next()
	if v%4 == 0 {
		return v >> 48 // 16-bit
	}
	return v >> 32 // 32-bit
}

// Quicksort sorts n mixed-magnitude keys with an iterative Lomuto
// quicksort using an explicit stack, then reports sum(i*a[i]) over the
// sorted array. Models the compare/swap/pointer behaviour of sorting
// inner loops.
func Quicksort(n int) Kernel {
	rng := NewRNG(101)
	arr := make([]uint64, n)
	for i := range arr {
		arr[i] = mixedValue(rng)
	}

	sorted := append([]uint64(nil), arr...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var expected uint64
	for i, v := range sorted {
		expected += uint64(i) * v
	}

	b := NewBuilder("qsort")
	b.Words(HeapBase, arr)
	b.La(1, HeapBase)
	b.Li(13, StackBase) // empty-stack sentinel
	// push (0, n-1)
	b.Addi(SP, SP, -16)
	b.St(isa.Zero, SP, 0)
	b.Li(14, int64(n-1))
	b.St(14, SP, 8)
	b.Label("main")
	b.Beq(SP, 13, "check")
	b.Ld(3, SP, 0) // lo
	b.Ld(4, SP, 8) // hi
	b.Addi(SP, SP, 16)
	b.Bge(3, 4, "main")
	// Partition: pivot = arr[hi].
	b.Slli(5, 4, 3)
	b.Add(5, 1, 5)
	b.Ld(6, 5, 0)
	b.Addi(7, 3, -1) // i
	b.Mv(8, 3)       // j
	b.Label("ploop")
	b.Bge(8, 4, "pdone")
	b.Slli(9, 8, 3)
	b.Add(9, 1, 9)
	b.Ld(10, 9, 0)
	b.Blt(6, 10, "pskip") // pivot < a[j]
	b.Addi(7, 7, 1)
	b.Slli(11, 7, 3)
	b.Add(11, 1, 11)
	b.Ld(12, 11, 0)
	b.St(10, 11, 0)
	b.St(12, 9, 0)
	b.Label("pskip")
	b.Addi(8, 8, 1)
	b.Jmp("ploop")
	b.Label("pdone")
	b.Addi(7, 7, 1) // p
	b.Slli(11, 7, 3)
	b.Add(11, 1, 11)
	b.Ld(12, 11, 0)
	b.Ld(10, 5, 0)
	b.St(10, 11, 0)
	b.St(12, 5, 0)
	// push (lo, p-1) and (p+1, hi)
	b.Addi(SP, SP, -16)
	b.St(3, SP, 0)
	b.Addi(14, 7, -1)
	b.St(14, SP, 8)
	b.Addi(SP, SP, -16)
	b.Addi(14, 7, 1)
	b.St(14, SP, 0)
	b.St(4, SP, 8)
	b.Jmp("main")
	// Checksum pass.
	b.Label("check")
	b.Li(20, 0)
	b.Li(21, 0)
	b.Li(22, int64(n))
	b.Label("chk")
	b.Bge(21, 22, "done")
	b.Slli(9, 21, 3)
	b.Add(9, 1, 9)
	b.Ld(10, 9, 0)
	b.Mul(11, 21, 10)
	b.Add(20, 20, 11)
	b.Addi(21, 21, 1)
	b.Jmp("chk")
	b.Label("done")
	b.Mv(ResultReg, 20)
	b.Halt()

	return Kernel{Name: "qsort", Prog: b.MustBuild(), Expected: expected}
}

// ListChase walks a randomly-permuted linked list for steps hops,
// folding each node's key into a running sum and writing the mutated key
// back. Models pointer-chasing codes (mcf, linked data structures):
// nearly every live value is a heap address or a small key.
func ListChase(n, steps int) Kernel {
	const nodeSize = 32
	rng := NewRNG(202)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Next() >> 48
	}
	// Node image: next pointer and key per node.
	words := make([]uint64, 4*n)
	for i := 0; i < n; i++ {
		from, to := perm[i], perm[(i+1)%n]
		words[4*from] = HeapBase + uint64(to*nodeSize)
		words[4*from+1] = keys[from]
	}

	// Architectural replica.
	var sum uint64
	kcopy := append([]uint64(nil), keys...)
	cur := perm[0]
	next := make([]int, n)
	for i := 0; i < n; i++ {
		next[perm[i]] = perm[(i+1)%n]
	}
	for s := 0; s < steps; s++ {
		sum += kcopy[cur]
		kcopy[cur] = sum & 0xffff
		cur = next[cur]
	}

	b := NewBuilder("listchase")
	b.Words(HeapBase, words)
	b.La(1, HeapBase+uint64(perm[0]*nodeSize))
	b.Li(2, int64(steps))
	b.Li(20, 0)
	b.Label("loop")
	b.Ld(3, 1, 8)
	b.Add(20, 20, 3)
	b.Andi(4, 20, 0xffff)
	b.St(4, 1, 8)
	b.Ld(1, 1, 0)
	b.Addi(2, 2, -1)
	b.Bnez(2, "loop")
	b.Mv(ResultReg, 20)
	b.Halt()

	return Kernel{Name: "listchase", Prog: b.MustBuild(), Expected: sum}
}

// HashProbe builds an open-addressing hash table from random 64-bit keys
// (multiplicative hashing, linear probing) and then sums the stored
// values over a lookup pass. The high-entropy keys and hash products are
// the canonical source of long values.
func HashProbe(nkeys, slots int) Kernel {
	rng := NewRNG(303)
	keys := make([]uint64, nkeys)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = rng.Next()
		}
	}
	mask := uint64(slots - 1)

	// Architectural replica.
	tkey := make([]uint64, slots)
	tval := make([]uint64, slots)
	hashHi := func(k uint64) uint64 {
		hi, _ := mul128(k, hashConst)
		return hi
	}
	for i, k := range keys {
		h := hashHi(k) & mask
		for {
			if tkey[h] == 0 {
				tkey[h], tval[h] = k, uint64(i)
				break
			}
			if tkey[h] == k {
				break
			}
			h = (h + 1) & mask
		}
	}
	var expected uint64
	for _, k := range keys {
		h := hashHi(k) & mask
		for {
			if tkey[h] == 0 {
				break
			}
			if tkey[h] == k {
				expected += tval[h]
				break
			}
			h = (h + 1) & mask
		}
	}

	b := NewBuilder("hashprobe")
	b.Words(GlobalBase, keys)
	b.La(1, GlobalBase)        // keys
	b.Li(3, int64(nkeys))      // count
	b.La(4, HeapBase)          // table
	b.Li(5, int64(mask))       // slot mask
	b.Li(12, asI64(hashConst)) // hash multiplier

	insert := func(valueFromIndex bool, doneLabel, prefix string) {
		// Shared probe structure for insert and lookup passes.
		b.Li(2, 0)
		b.Label(prefix + "loop")
		b.Bge(2, 3, doneLabel)
		b.Slli(6, 2, 3)
		b.Add(6, 1, 6)
		b.Ld(7, 6, 0) // key
		b.Mulhu(8, 7, 12)
		b.And(8, 8, 5)
		b.Label(prefix + "probe")
		b.Slli(9, 8, 4)
		b.Add(9, 4, 9)
		b.Ld(10, 9, 0)
		if valueFromIndex {
			b.Beqz(10, prefix+"insert")
			b.Beq(10, 7, prefix+"next")
		} else {
			b.Beqz(10, prefix+"next")
			b.Beq(10, 7, prefix+"hit")
		}
		b.Addi(8, 8, 1)
		b.And(8, 8, 5)
		b.Jmp(prefix + "probe")
		if valueFromIndex {
			b.Label(prefix + "insert")
			b.St(7, 9, 0)
			b.St(2, 9, 8)
		} else {
			b.Label(prefix + "hit")
			b.Ld(11, 9, 8)
			b.Add(20, 20, 11)
		}
		b.Label(prefix + "next")
		b.Addi(2, 2, 1)
		b.Jmp(prefix + "loop")
	}

	insert(true, "lookups", "i")
	b.Label("lookups")
	b.Li(20, 0)
	insert(false, "fin", "l")
	b.Label("fin")
	b.Mv(ResultReg, 20)
	b.Halt()

	return Kernel{Name: "hashprobe", Prog: b.MustBuild(), Expected: expected}
}

// StringSearch counts occurrences of a pattern in a biased random text
// with the naive algorithm. Byte loads and tiny loop indices make most
// live values simple.
func StringSearch(textLen, patLen int) Kernel {
	rng := NewRNG(404)
	text := make([]byte, textLen)
	for i := range text {
		text[i] = byte('a' + rng.Intn(4))
	}
	patStart := textLen / 3
	pat := append([]byte(nil), text[patStart:patStart+patLen]...)

	var expected uint64
	for i := 0; i+patLen <= textLen; i++ {
		match := true
		for j := 0; j < patLen; j++ {
			if text[i+j] != pat[j] {
				match = false
				break
			}
		}
		if match {
			expected++
		}
	}

	patBase := GlobalBase + uint64(textLen+64)
	b := NewBuilder("strsearch")
	b.Data(GlobalBase, text)
	b.Data(patBase, pat)
	b.La(1, GlobalBase)
	b.La(2, patBase)
	b.Li(3, int64(textLen-patLen)) // last start
	b.Li(6, int64(patLen))
	b.Li(4, 0)  // i
	b.Li(20, 0) // count
	b.Label("outer")
	b.Blt(3, 4, "done")
	b.Li(5, 0) // j
	b.Label("inner")
	b.Bge(5, 6, "match")
	b.Add(7, 1, 4)
	b.Add(7, 7, 5)
	b.Lbu(8, 7, 0)
	b.Add(9, 2, 5)
	b.Lbu(10, 9, 0)
	b.Bne(8, 10, "nomatch")
	b.Addi(5, 5, 1)
	b.Jmp("inner")
	b.Label("match")
	b.Addi(20, 20, 1)
	b.Label("nomatch")
	b.Addi(4, 4, 1)
	b.Jmp("outer")
	b.Label("done")
	b.Mv(ResultReg, 20)
	b.Halt()

	return Kernel{Name: "strsearch", Prog: b.MustBuild(), Expected: expected}
}

// RLE run-length encodes a bursty byte buffer, decodes it back, and
// reports a polynomial checksum of the decoded bytes (which must equal a
// checksum of the input). Models byte-oriented compression loops.
func RLE(length int) Kernel {
	rng := NewRNG(505)
	in := make([]byte, 0, length)
	for len(in) < length {
		v := byte(rng.Intn(8))
		run := 1 + rng.Intn(8)
		for r := 0; r < run && len(in) < length; r++ {
			in = append(in, v)
		}
	}

	var expected uint64
	for _, c := range in {
		expected = expected*31 + uint64(c)
	}

	encBase := HeapBase + uint64(4*length)
	decBase := encBase + uint64(4*length)
	b := NewBuilder("rle")
	b.Data(HeapBase, in)
	b.La(1, HeapBase)
	b.Li(2, int64(length))
	b.Li(3, 0)
	b.La(4, encBase)
	b.Li(11, 255)
	// Encode.
	b.Label("eloop")
	b.Bge(3, 2, "edone")
	b.Add(5, 1, 3)
	b.Lbu(6, 5, 0)
	b.Addi(7, isa.Zero, 1) // run = 1
	b.Label("erun")
	b.Add(8, 3, 7)
	b.Bge(8, 2, "estop")
	b.Add(9, 1, 8)
	b.Lbu(10, 9, 0)
	b.Bne(10, 6, "estop")
	b.Addi(7, 7, 1)
	b.Blt(7, 11, "erun")
	b.Label("estop")
	b.Sb(7, 4, 0)
	b.Sb(6, 4, 1)
	b.Addi(4, 4, 2)
	b.Add(3, 3, 7)
	b.Jmp("eloop")
	// Decode: enc stream is [encBase, x4).
	b.Label("edone")
	b.La(5, encBase)
	b.La(12, decBase)
	b.Label("dloop")
	b.Bge(5, 4, "ddone")
	b.Lbu(6, 5, 0)
	b.Lbu(7, 5, 1)
	b.Addi(5, 5, 2)
	b.Label("drun")
	b.Beqz(6, "dloop")
	b.Sb(7, 12, 0)
	b.Addi(12, 12, 1)
	b.Addi(6, 6, -1)
	b.Jmp("drun")
	// Checksum decoded bytes.
	b.Label("ddone")
	b.La(13, decBase)
	b.Li(20, 0)
	b.Label("csum")
	b.Bge(13, 12, "done")
	b.Lbu(6, 13, 0)
	b.Slli(7, 20, 5)
	b.Sub(7, 7, 20) // 31*cs
	b.Add(20, 7, 6)
	b.Addi(13, 13, 1)
	b.Jmp("csum")
	b.Label("done")
	b.Mv(ResultReg, 20)
	b.Halt()

	return Kernel{Name: "rle", Prog: b.MustBuild(), Expected: expected}
}

// crc64Table is the ECMA-182 CRC-64 table used by the CRC64 kernel.
func crc64Table() []uint64 {
	const poly = 0xC96C5795D7870F42
	tab := make([]uint64, 256)
	for i := range tab {
		crc := uint64(i)
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		tab[i] = crc
	}
	return tab
}

// CRC64 computes a table-driven CRC-64 over a random buffer for several
// passes. The rolling CRC register is a continuously-changing
// high-entropy value: the archetypal long value.
func CRC64(length, passes int) Kernel {
	rng := NewRNG(606)
	data := make([]byte, length)
	for i := range data {
		data[i] = byte(rng.Next())
	}
	tab := crc64Table()

	crc := ^uint64(0)
	for p := 0; p < passes; p++ {
		for _, c := range data {
			crc = tab[byte(crc)^c] ^ crc>>8
		}
	}

	b := NewBuilder("crc64")
	b.Data(HeapBase, data)
	b.Words(GlobalBase, tab)
	b.La(1, HeapBase)
	b.Li(2, int64(length))
	b.La(3, GlobalBase)
	b.Li(20, -1) // crc
	b.Li(4, int64(passes))
	b.Label("pass")
	b.Li(5, 0)
	b.Label("byte")
	b.Bge(5, 2, "pend")
	b.Add(6, 1, 5)
	b.Lbu(7, 6, 0)
	b.Xor(8, 20, 7)
	b.Andi(8, 8, 0xff)
	b.Slli(8, 8, 3)
	b.Add(8, 3, 8)
	b.Ld(9, 8, 0)
	b.Srli(10, 20, 8)
	b.Xor(20, 9, 10)
	b.Addi(5, 5, 1)
	b.Jmp("byte")
	b.Label("pend")
	b.Addi(4, 4, -1)
	b.Bnez(4, "pass")
	b.Mv(ResultReg, 20)
	b.Halt()

	return Kernel{Name: "crc64", Prog: b.MustBuild(), Expected: crc}
}

// TreeInsert builds a binary search tree from random keys with a bump
// allocator, then re-searches every key accumulating the total search
// depth. Models allocation-heavy pointer codes (compilers, interpreters).
func TreeInsert(n int) Kernel {
	const nodeSize = 32
	rng := NewRNG(707)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Next() >> 32
	}

	// Architectural replica with indices as pointers.
	type node struct {
		key         uint64
		left, right int
	}
	nodes := make([]node, 0, n)
	root := -1
	insert := func(k uint64) {
		if root == -1 {
			nodes = append(nodes, node{key: k, left: -1, right: -1})
			root = 0
			return
		}
		cur := root
		for {
			c := &nodes[cur]
			if k == c.key {
				return
			}
			if k < c.key {
				if c.left == -1 {
					nodes = append(nodes, node{key: k, left: -1, right: -1})
					c.left = len(nodes) - 1
					return
				}
				cur = c.left
			} else {
				if c.right == -1 {
					nodes = append(nodes, node{key: k, left: -1, right: -1})
					c.right = len(nodes) - 1
					return
				}
				cur = c.right
			}
		}
	}
	for _, k := range keys {
		insert(k)
	}
	var expected uint64
	for _, k := range keys {
		cur, depth := root, uint64(0)
		for cur != -1 {
			depth++
			c := nodes[cur]
			if k == c.key {
				expected += depth
				break
			}
			if k < c.key {
				cur = c.left
			} else {
				cur = c.right
			}
		}
	}

	b := NewBuilder("treeinsert")
	b.Words(GlobalBase, keys)
	b.La(1, HeapBase) // bump pointer
	b.Li(2, 0)        // root (0 = nil)
	b.La(10, GlobalBase)
	b.Li(3, 0)        // i
	b.Li(4, int64(n)) // n
	b.Label("iloop")
	b.Bge(3, 4, "search")
	b.Slli(5, 3, 3)
	b.Add(5, 10, 5)
	b.Ld(5, 5, 0) // key
	b.St(5, 1, 0) // prepare node at bump ptr
	b.Bnez(2, "walk")
	b.Mv(2, 1) // first node becomes root
	b.Jmp("bump")
	b.Label("walk")
	b.Mv(6, 2) // cur = root
	b.Label("wloop")
	b.Ld(7, 6, 0)
	b.Beq(5, 7, "inext") // duplicate: drop (node slot reused)
	b.Bltu(5, 7, "goleft")
	b.Ld(8, 6, 16)
	b.Beqz(8, "aright")
	b.Mv(6, 8)
	b.Jmp("wloop")
	b.Label("goleft")
	b.Ld(8, 6, 8)
	b.Beqz(8, "aleft")
	b.Mv(6, 8)
	b.Jmp("wloop")
	b.Label("aleft")
	b.St(1, 6, 8)
	b.Jmp("bump")
	b.Label("aright")
	b.St(1, 6, 16)
	b.Label("bump")
	b.Addi(1, 1, nodeSize)
	b.Label("inext")
	b.Addi(3, 3, 1)
	b.Jmp("iloop")
	// Search pass.
	b.Label("search")
	b.Li(20, 0)
	b.Li(3, 0)
	b.Label("sloop")
	b.Bge(3, 4, "done")
	b.Slli(5, 3, 3)
	b.Add(5, 10, 5)
	b.Ld(5, 5, 0)
	b.Mv(6, 2)
	b.Label("swalk")
	b.Beqz(6, "snext")
	b.Addi(20, 20, 1)
	b.Ld(7, 6, 0)
	b.Beq(5, 7, "snext")
	b.Bltu(5, 7, "sleft")
	b.Ld(6, 6, 16)
	b.Jmp("swalk")
	b.Label("sleft")
	b.Ld(6, 6, 8)
	b.Jmp("swalk")
	b.Label("snext")
	b.Addi(3, 3, 1)
	b.Jmp("sloop")
	b.Label("done")
	b.Mv(ResultReg, 20)
	b.Halt()

	return Kernel{Name: "treeinsert", Prog: b.MustBuild(), Expected: expected}
}

// BFS runs breadth-first search over a random graph in CSR form with an
// explicit queue, then sums the (distance+1) labels. Models irregular
// graph traversal with data-dependent loads.
func BFS(n, degree int) Kernel {
	rng := NewRNG(808)
	row := make([]uint64, n+1)
	var edges []uint64
	for u := 0; u < n; u++ {
		row[u] = uint64(len(edges))
		for d := 0; d < degree; d++ {
			edges = append(edges, uint64(rng.Intn(n)))
		}
	}
	row[n] = uint64(len(edges))

	// Architectural replica: dist holds distance+1, 0 = unvisited.
	dist := make([]uint64, n)
	queue := make([]int, 0, n)
	dist[0] = 1
	queue = append(queue, 0)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for e := row[u]; e < row[u+1]; e++ {
			v := edges[e]
			if dist[v] == 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	var expected uint64
	for _, d := range dist {
		expected += d
	}

	edgeBase := GlobalBase + uint64(8*(n+1))
	distBase := uint64(HeapBase)
	queueBase := HeapBase + uint64(8*n) + 4096
	b := NewBuilder("bfs")
	b.Words(GlobalBase, row)
	b.Words(edgeBase, edges)
	b.La(1, GlobalBase) // rowstart
	b.La(2, edgeBase)   // edges
	b.La(3, distBase)   // dist
	b.La(4, queueBase)  // queue
	b.Li(5, 0)          // head
	b.Li(6, 0)          // tail
	// push source 0 with dist 1
	b.Addi(9, isa.Zero, 1)
	b.St(9, 3, 0)
	b.St(isa.Zero, 4, 0)
	b.Addi(6, 6, 1)
	b.Label("loop")
	b.Beq(5, 6, "sum")
	b.Slli(7, 5, 3)
	b.Add(7, 4, 7)
	b.Ld(8, 7, 0) // u
	b.Addi(5, 5, 1)
	b.Slli(9, 8, 3)
	b.Add(9, 3, 9)
	b.Ld(10, 9, 0) // dist[u]
	b.Slli(11, 8, 3)
	b.Add(11, 1, 11)
	b.Ld(12, 11, 0) // rowstart[u]
	b.Ld(13, 11, 8) // rowstart[u+1]
	b.Label("eloop")
	b.Bge(12, 13, "loop")
	b.Slli(14, 12, 3)
	b.Add(14, 2, 14)
	b.Ld(15, 14, 0) // v
	b.Slli(16, 15, 3)
	b.Add(16, 3, 16)
	b.Ld(17, 16, 0)
	b.Bnez(17, "skip")
	b.Addi(18, 10, 1)
	b.St(18, 16, 0)
	b.Slli(19, 6, 3)
	b.Add(19, 4, 19)
	b.St(15, 19, 0)
	b.Addi(6, 6, 1)
	b.Label("skip")
	b.Addi(12, 12, 1)
	b.Jmp("eloop")
	// Sum distance labels.
	b.Label("sum")
	b.Li(20, 0)
	b.Li(7, 0)
	b.Li(8, int64(n))
	b.Label("sloop")
	b.Bge(7, 8, "done")
	b.Slli(9, 7, 3)
	b.Add(9, 3, 9)
	b.Ld(10, 9, 0)
	b.Add(20, 20, 10)
	b.Addi(7, 7, 1)
	b.Jmp("sloop")
	b.Label("done")
	b.Mv(ResultReg, 20)
	b.Halt()

	return Kernel{Name: "bfs", Prog: b.MustBuild(), Expected: expected}
}

// Histogram counts byte frequencies over a random buffer and reports a
// weighted sum. Models table-update loops with read-modify-write
// dependences through memory.
func Histogram(length int) Kernel {
	rng := NewRNG(909)
	data := make([]byte, length)
	for i := range data {
		// Skewed distribution: low bytes dominate.
		v := rng.Next()
		data[i] = byte(v % 61 * uint64(v>>60) % 256)
	}

	hist := make([]uint64, 256)
	for _, c := range data {
		hist[c]++
	}
	var expected uint64
	for v, c := range hist {
		expected += uint64(v) * c
	}

	b := NewBuilder("histo")
	b.Data(HeapBase, data)
	b.La(1, HeapBase)
	b.Li(2, int64(length))
	b.La(3, GlobalBase) // hist[256]
	b.Li(4, 0)
	b.Label("loop")
	b.Bge(4, 2, "scan")
	b.Add(5, 1, 4)
	b.Lbu(6, 5, 0)
	b.Slli(7, 6, 3)
	b.Add(7, 3, 7)
	b.Ld(8, 7, 0)
	b.Addi(8, 8, 1)
	b.St(8, 7, 0)
	b.Addi(4, 4, 1)
	b.Jmp("loop")
	b.Label("scan")
	b.Li(20, 0)
	b.Li(4, 0)
	b.Li(9, 256)
	b.Label("sloop")
	b.Bge(4, 9, "done")
	b.Slli(7, 4, 3)
	b.Add(7, 3, 7)
	b.Ld(8, 7, 0)
	b.Mul(10, 4, 8)
	b.Add(20, 20, 10)
	b.Addi(4, 4, 1)
	b.Jmp("sloop")
	b.Label("done")
	b.Mv(ResultReg, 20)
	b.Halt()

	return Kernel{Name: "histo", Prog: b.MustBuild(), Expected: expected}
}

// VMLoop interprets a random bytecode stream through a computed jump
// table (indirect jumps), updating a two-register virtual machine and a
// small data heap. Models interpreter dispatch loops (perl/gcc-style
// indirect control flow).
func VMLoop(codeLen, steps int) Kernel {
	rng := NewRNG(1010)
	bytecode := make([]byte, codeLen)
	for i := range bytecode {
		bytecode[i] = byte(rng.Intn(8))
	}
	const dataWords = 512 // 4KB scratch
	const dataMask = dataWords*8 - 8
	scratch := make([]uint64, dataWords)
	for i := range scratch {
		scratch[i] = rng.Next()
	}

	// Architectural replica.
	mem := append([]uint64(nil), scratch...)
	var acc, reg uint64
	ip := 0
	for s := 0; s < steps; s++ {
		op := bytecode[ip]
		ip++
		if ip >= codeLen {
			ip = 0
		}
		switch op {
		case 0:
			acc += uint64(ip)
		case 1:
			acc ^= reg
		case 2:
			reg = acc >> 3
		case 3:
			acc += mem[(acc&dataMask)/8]
		case 4:
			reg += 7
		case 5:
			acc = acc*5 + reg
		case 6:
			mem[(reg&dataMask)/8] = acc
		case 7:
			acc -= reg
		}
	}
	expected := acc ^ reg

	tableBase := uint64(GlobalBase) + 0x10000
	b := NewBuilder("vmloop")
	b.Data(GlobalBase, bytecode)
	b.Words(HeapBase, scratch)
	b.WordsLabels(tableBase, []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"})
	b.La(1, GlobalBase) // bytecode
	b.Li(2, int64(codeLen))
	b.La(3, tableBase)
	b.Li(4, int64(steps))
	b.La(9, HeapBase)  // scratch
	b.Li(10, dataMask) // address mask
	b.Li(20, 0)        // acc
	b.Li(21, 0)        // reg
	b.Li(22, 0)        // ip
	b.Label("dispatch")
	b.Beqz(4, "done")
	b.Addi(4, 4, -1)
	b.Add(5, 1, 22)
	b.Lbu(6, 5, 0)
	b.Addi(22, 22, 1)
	b.Blt(22, 2, "nowrap")
	b.Li(22, 0)
	b.Label("nowrap")
	b.Slli(7, 6, 3)
	b.Add(7, 3, 7)
	b.Ld(8, 7, 0)
	b.Jr(8)
	b.Label("h0")
	b.Add(20, 20, 22)
	b.Jmp("dispatch")
	b.Label("h1")
	b.Xor(20, 20, 21)
	b.Jmp("dispatch")
	b.Label("h2")
	b.Srli(21, 20, 3)
	b.Jmp("dispatch")
	b.Label("h3")
	b.And(11, 20, 10)
	b.Add(11, 9, 11)
	b.Ld(12, 11, 0)
	b.Add(20, 20, 12)
	b.Jmp("dispatch")
	b.Label("h4")
	b.Addi(21, 21, 7)
	b.Jmp("dispatch")
	b.Label("h5")
	b.Slli(11, 20, 2)
	b.Add(11, 11, 20) // acc*5
	b.Add(20, 11, 21)
	b.Jmp("dispatch")
	b.Label("h6")
	b.And(11, 21, 10)
	b.Add(11, 9, 11)
	b.St(20, 11, 0)
	b.Jmp("dispatch")
	b.Label("h7")
	b.Sub(20, 20, 21)
	b.Jmp("dispatch")
	b.Label("done")
	b.Xor(ResultReg, 20, 21)
	b.Halt()

	return Kernel{Name: "vmloop", Prog: b.MustBuild(), Expected: expected}
}

// mul128 returns the 128-bit product (hi, lo) of a and b, mirroring the
// MULHU semantics in the VM.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	lo = a * b
	t := ah*bl + (al*bl)>>32
	hi = ah*bh + t>>32 + (al*bh+t&mask)>>32
	return hi, lo
}
