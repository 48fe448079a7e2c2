package workload

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Suite construction. The integer suite stands in for SPECint2000 and
// the FP suite for SPECfp2000 (see DESIGN.md §3). Sizes are chosen so
// each kernel executes a few hundred thousand dynamic instructions at
// scale 1.0; scale multiplies the work (iteration counts / input
// lengths), keeping data-structure shapes intact.

type kernelFactory struct {
	name string
	fp   bool
	make func(scale float64) Kernel
}

// min3 clamps v to [0, hi] (FFT sizes must stay powers of two, so the
// scale knob selects among a few sizes instead of scaling linearly).
func min3(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

func scaled(base int, scale float64) int {
	n := int(math.Round(float64(base) * scale))
	if n < 1 {
		return 1
	}
	return n
}

var factories = []kernelFactory{
	{"qsort", false, func(s float64) Kernel { return Quicksort(scaled(2000, s)) }},
	{"listchase", false, func(s float64) Kernel { return ListChase(4096, scaled(40000, s)) }},
	{"hashprobe", false, func(s float64) Kernel { return HashProbe(scaled(8192, s), 32768) }},
	{"strsearch", false, func(s float64) Kernel { return StringSearch(scaled(15000, s), 8) }},
	{"rle", false, func(s float64) Kernel { return RLE(scaled(15000, s)) }},
	{"crc64", false, func(s float64) Kernel { return CRC64(scaled(20000, s), 1) }},
	{"treeinsert", false, func(s float64) Kernel { return TreeInsert(scaled(2000, s)) }},
	{"bfs", false, func(s float64) Kernel { return BFS(4096, scaled(6, s)) }},
	{"histo", false, func(s float64) Kernel { return Histogram(scaled(30000, s)) }},
	{"vmloop", false, func(s float64) Kernel { return VMLoop(1024, scaled(25000, s)) }},
	{"matmul", false, func(s float64) Kernel { return MatMulInt(scaled(42, s)) }},
	{"dijkstra", false, func(s float64) Kernel { return Dijkstra(2048, scaled(6, s)) }},
	{"lzmatch", false, func(s float64) Kernel { return LZMatch(scaled(1400, s)) }},
	{"tokenizer", false, func(s float64) Kernel { return Tokenizer(scaled(18000, s)) }},

	{"saxpy", true, func(s float64) Kernel { return Saxpy(2000, scaled(15, s)) }},
	{"stencil", true, func(s float64) Kernel { return Stencil(2000, scaled(10, s)) }},
	{"nbody", true, func(s float64) Kernel { return NBody(24, scaled(25, s)) }},
	{"montecarlo", true, func(s float64) Kernel { return MonteCarlo(scaled(18000, s)) }},
	{"dotprod", true, func(s float64) Kernel { return DotProduct(2000, scaled(20, s)) }},
	{"jacobi", true, func(s float64) Kernel { return Jacobi(48, scaled(6, s)) }},
	{"fft", true, func(s float64) Kernel { return FFT(256 << min3(int(s*2), 2)) }},
	{"conv2d", true, func(s float64) Kernel { return Conv2D(40, scaled(8, s)) }},
}

// Ref is one kernel of the suite at one scale, not yet built. Name and
// FP are known up front; the program is built by the first Build call
// and every later call, from any goroutine, returns the same Kernel.
// The process keeps one canonical Ref per (kernel, scale) — IntSuite,
// FPSuite, AllKernels, Lookup and ByName all hand out that Ref — for the
// refKeep most recently used scales' worth of kernels (see refMemo), so
// a study, which runs at one scale, builds each program at most once,
// and only if some run actually needs it: runs served from a cache
// never call Build.
type Ref struct {
	Name string
	FP   bool // member of the floating-point suite

	f     *kernelFactory
	scale float64
	once  sync.Once
	k     Kernel
	err   error
}

// Build returns the kernel, building its program on the first call. A
// panic inside the kernel's factory (a bug exposed by an extreme scale)
// is returned as an error rather than taking the caller down.
func (r *Ref) Build() (Kernel, error) {
	r.once.Do(func() { r.k, r.err = r.f.build(r.scale) })
	return r.k, r.err
}

var builds atomic.Uint64

// Builds reports how many kernel programs this process has built
// through Ref.Build and ByName.
func Builds() uint64 { return builds.Load() }

func (f *kernelFactory) build(scale float64) (k Kernel, err error) {
	builds.Add(1)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("workload: building kernel %q at scale %v panicked: %v", f.name, scale, r)
		}
	}()
	return f.make(scale), nil
}

// refMemo holds the canonical Refs of the most recently handed out
// (kernel, scale) pairs: at most refKeep full suites' worth, the least
// recently handed out evicted first. A built suite holds about 0.56 MiB
// at scale 0.05 and 1.1 MiB at 1.0, so a long-lived process fed many
// scales (a daemon's clients choose theirs) keeps a few MiB live beyond
// the Refs its jobs still hold. An evicted Ref stays valid for whoever
// holds it; the next lookup of its pair makes, and builds, a new one.
const refKeep = 4

var (
	refMu   sync.Mutex
	refMemo = map[kernelKey]refEntry{}
	refTick uint64 // counts hand-outs; orders entries by last use
)

type refEntry struct {
	r    *Ref
	used uint64 // refTick at the entry's last hand-out
}

func (f *kernelFactory) ref(scale float64) *Ref {
	key := kernelKey{f.name, scale}
	refMu.Lock()
	defer refMu.Unlock()
	refTick++
	e, ok := refMemo[key]
	if !ok {
		if len(refMemo) >= refKeep*len(factories) {
			evictLeastRecentRef()
		}
		e.r = &Ref{Name: f.name, FP: f.fp, f: f, scale: scale}
	}
	e.used = refTick
	refMemo[key] = e
	return e.r
}

// evictLeastRecentRef drops the memo entry handed out longest ago. It
// scans the whole memo, which is small and evicts only when a new pair
// arrives with the memo full. Callers hold refMu.
func evictLeastRecentRef() {
	var oldest kernelKey
	oldestUse := ^uint64(0)
	for k, e := range refMemo {
		if e.used < oldestUse {
			oldest, oldestUse = k, e.used
		}
	}
	delete(refMemo, oldest)
}

// IntSuite returns the integer kernels at the given scale (1.0 is the
// standard experiment size), unbuilt.
func IntSuite(scale float64) []*Ref { return bySuite(false, scale) }

// FPSuite returns the floating-point kernels at the given scale, unbuilt.
func FPSuite(scale float64) []*Ref { return bySuite(true, scale) }

// AllKernels returns the full suite, integer kernels first, unbuilt.
func AllKernels(scale float64) []*Ref {
	return append(IntSuite(scale), FPSuite(scale)...)
}

func bySuite(fp bool, scale float64) []*Ref {
	var out []*Ref
	for i := range factories {
		if f := &factories[i]; f.fp == fp {
			out = append(out, f.ref(scale))
		}
	}
	return out
}

// Names returns all kernel names in suite order.
func Names() []string {
	names := make([]string, len(factories))
	for i, f := range factories {
		names[i] = f.name
	}
	return names
}

// Lookup returns the named kernel at the given scale, unbuilt (built
// already if an earlier caller built its canonical Ref).
func Lookup(name string, scale float64) (*Ref, error) {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("workload: scale %v must be a positive finite number", scale)
	}
	for i := range factories {
		if f := &factories[i]; f.name == name {
			return f.ref(scale), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown kernel %q (known: %v)", name, Names())
}

// ByName builds the named kernel at the given scale.
func ByName(name string, scale float64) (Kernel, error) {
	r, err := Lookup(name, scale)
	if err != nil {
		return Kernel{}, err
	}
	return r.Build()
}
