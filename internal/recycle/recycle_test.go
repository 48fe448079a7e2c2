package recycle

import (
	"sync"
	"testing"
)

func TestPoolKeyedByLength(t *testing.T) {
	var p Pool[int]
	if got := p.Get(4); len(got) != 4 {
		t.Fatalf("empty pool: Get(4) has length %d", len(got))
	}
	a, b := p.Get(8), p.Get(16)
	a[1], b[15] = 5, 9
	p.Put(a)
	p.Put(b)
	p.Put(nil) // ignored
	got := p.Get(16)
	if &got[0] != &b[0] {
		t.Error("Get(16) did not reuse the released 16-entry table")
	}
	if got[15] != 0 {
		t.Error("a reused table was not cleared")
	}
	if again := p.Get(16); &again[0] == &b[0] {
		t.Error("16-entry table handed out twice")
	}
	if got := p.Get(8); &got[0] != &a[0] || got[1] != 0 {
		t.Error("Get(8) did not reuse the released 8-entry table, cleared")
	}
}

// TestPoolPadsToLines: a table fills whole 64-byte cache lines, any
// length in one line class reuses the same tables, the padding is
// cleared too, and a table Get would not have made is not kept.
func TestPoolPadsToLines(t *testing.T) {
	var p Pool[int]
	a := p.Get(5)
	if len(a) != 5 || cap(a) != 8 {
		t.Fatalf("Get(5) of 8-byte elements: len %d cap %d, want 5 and 8", len(a), cap(a))
	}
	a[:8][7] = 1
	p.Put(a)
	if got := p.Get(7); &got[0] != &a[0] || len(got) != 7 || got[:8][7] != 0 {
		t.Error("Get(7) did not reuse the 8-entry table of Get(5), cleared to its capacity")
	}
	if c := cap(new(Pool[bool]).Get(112)); c != 128 {
		t.Errorf("Get(112) of bools has capacity %d, want 128", c)
	}
	p.Put(make([]int, 4)) // half a line: left to the garbage collector
	if n := p.Len(4); n != 0 {
		t.Errorf("pool kept %d tables that do not fill their lines", n)
	}
}

func TestPoolBounded(t *testing.T) {
	var p Pool[byte]
	put := map[*byte]bool{}
	for i := 0; i < keep+3; i++ {
		tb := make([]byte, 64)
		put[&tb[0]] = true
		p.Put(tb)
	}
	reused := 0
	for i := 0; i < keep+3; i++ {
		if tb := p.Get(64); put[&tb[0]] {
			reused++
		}
	}
	if reused != keep {
		t.Errorf("pool retained %d tables of one capacity, want %d", reused, keep)
	}
}

func TestPoolKeep(t *testing.T) {
	p := Pool[byte]{Keep: 3 * keep}
	for i := 0; i < 4*keep; i++ {
		p.Put(make([]byte, 128))
	}
	p.Put(make([]byte, 64))
	if n := p.Len(128); n != 3*keep {
		t.Errorf("pool with Keep %d holds %d tables of one capacity", 3*keep, n)
	}
	if n := p.Len(64); n != 1 {
		t.Errorf("pool holds %d 64-byte tables, want 1", n)
	}
	p.Get(128)
	if n := p.Len(128); n != 3*keep-1 {
		t.Errorf("after Get the pool holds %d tables, want %d", n, 3*keep-1)
	}
}

func TestPoolConcurrent(t *testing.T) {
	var p Pool[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tb := p.Get(32)
				if tb[0] != 0 {
					t.Error("Get returned a dirty table")
				}
				tb[0]++
				p.Put(tb)
			}
		}()
	}
	wg.Wait()
}

func TestPoolReturn(t *testing.T) {
	var p Pool[int]
	stack := p.Get(16)[:0]
	stack = append(stack, 7)
	p.Return(&stack)
	if stack != nil {
		t.Error("Return left the owner's reference")
	}
	p.Return(&stack) // a second return puts nothing back
	if n := p.Len(16); n != 1 {
		t.Fatalf("pool holds %d 16-entry tables, want the one whole table", n)
	}
	if got := p.Get(16); len(got) != 16 || got[0] != 0 {
		t.Errorf("reused table = %v, want 16 zeroed entries", got)
	}
}
