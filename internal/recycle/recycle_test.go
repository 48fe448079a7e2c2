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
