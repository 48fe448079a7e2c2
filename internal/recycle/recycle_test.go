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
	a, b := make([]int, 4), make([]int, 8)
	a[1], b[7] = 5, 9
	p.Put(a)
	p.Put(b)
	p.Put(nil) // ignored
	got := p.Get(8)
	if &got[0] != &b[0] {
		t.Error("Get(8) did not reuse the released 8-entry table")
	}
	if got[7] != 0 {
		t.Error("a reused table was not cleared")
	}
	if again := p.Get(8); &again[0] == &b[0] {
		t.Error("8-entry table handed out twice")
	}
	if got := p.Get(4); &got[0] != &a[0] || got[1] != 0 {
		t.Error("Get(4) did not reuse the released 4-entry table, cleared")
	}
}

func TestPoolBounded(t *testing.T) {
	var p Pool[byte]
	put := map[*byte]bool{}
	for i := 0; i < keep+3; i++ {
		tb := make([]byte, 16)
		put[&tb[0]] = true
		p.Put(tb)
	}
	reused := 0
	for i := 0; i < keep+3; i++ {
		if tb := p.Get(16); put[&tb[0]] {
			reused++
		}
	}
	if reused != keep {
		t.Errorf("pool retained %d tables of one length, want %d", reused, keep)
	}
}

func TestPoolKeep(t *testing.T) {
	p := Pool[byte]{Keep: 3 * keep}
	for i := 0; i < 4*keep; i++ {
		p.Put(make([]byte, 16))
	}
	p.Put(make([]byte, 8))
	if n := p.Len(16); n != 3*keep {
		t.Errorf("pool with Keep %d holds %d tables of one length", 3*keep, n)
	}
	if n := p.Len(8); n != 1 {
		t.Errorf("pool holds %d 8-entry tables, want 1", n)
	}
	p.Get(16)
	if n := p.Len(16); n != 3*keep-1 {
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
