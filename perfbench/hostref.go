package main

import (
	"sync"
	"time"
)

// Host normalization. The benchmark's host shares its cores, caches and
// memory with other tenants, and their load moves the simulator's speed
// by a quarter within seconds and between runs (README.md, "Host
// noise"). So the benchmark times a short fixed reference loop while it
// measures and scales each timed interval by a nominal time over the
// loop's time. Load that slows the simulator slows the reference about
// as much, and the ratio cancels it; a change to the program moves only
// the interval. The loop is memory-bound on purpose: a compute-bound
// loop tracked the simulator's slowdowns far less closely.
//
// Where the reference runs depends on the workload's threads. A
// workload of two threads keeps both CPUs busy and its intervals last
// seconds, inside which the host's speed changes several times, so a
// sampler goroutine times the loop every samplePeriod throughout. A
// workload of one goroutine leaves the other CPU idle, and a sampler
// there reads that CPU rather than the simulator's, so the reference
// runs inline instead, on the workload's goroutine, just before and
// just after each interval.

const (
	// refIters is the reference loop's length.
	refIters = 200_000
	// sampledNominal and inlineNominal are one loop's typical time on a
	// 2-vCPU x86-64 host, beside the busy simulator and back to back on
	// its goroutine, so normalized times read close to raw ones there.
	sampledNominal = 4500 * time.Microsecond
	inlineNominal  = 1800 * time.Microsecond
	// samplePeriod spaces the sampler's loops: about 5% of one CPU.
	samplePeriod = 100 * time.Millisecond
	// inlineLoops is how many loops one inline reading times.
	inlineLoops = 8
)

// refTable is 8 MiB, larger than the per-core caches.
var refTable = make([]uint64, 1<<20)

var refSink uint64

// refLoop times one pass of random read-modify-writes over refTable and
// returns nominal over its time.
func refLoop(nominal time.Duration) float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	mask := uint64(len(refTable) - 1)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		refTable[j] += x
		if refTable[(j*7)&mask]&1 == 0 {
			refSink++
		}
	}
	return float64(nominal) / float64(time.Since(t0))
}

// inlineReading is the mean of inlineLoops loops run back to back.
func inlineReading() float64 {
	var sum float64
	for i := 0; i < inlineLoops; i++ {
		sum += refLoop(inlineNominal)
	}
	return sum / inlineLoops
}

type hostSample struct {
	at    time.Time
	scale float64
}

// hostRef measures the host's speed with the reference loop, inline or
// with a sampler goroutine.
type hostRef struct {
	inline bool
	before float64 // inline: the reading begin took

	mu      sync.Mutex
	samples []hostSample
	stop    chan struct{}
	done    chan struct{}
}

// newHostRef returns an inline reference for a one-goroutine workload
// and starts a sampler goroutine otherwise.
func newHostRef(inline bool) *hostRef {
	h := &hostRef{inline: inline}
	if inline {
		return h
	}
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				s := refLoop(sampledNominal)
				h.mu.Lock()
				h.samples = append(h.samples, hostSample{time.Now(), s})
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// close stops the sampler, if any, and waits for its goroutine to exit.
func (h *hostRef) close() {
	if h.stop != nil {
		close(h.stop)
		<-h.done
	}
}

// begin starts a timed interval and returns its start.
func (h *hostRef) begin() time.Time {
	if h.inline {
		h.before = inlineReading()
	}
	return time.Now()
}

// scale is the host scale over the interval begun at t0 and ending now:
// the mean of the readings just before and just after it, or of the
// samples taken inside it. An interval too short to hold a sample takes
// one now.
func (h *hostRef) scale(t0 time.Time) float64 {
	if h.inline {
		return (h.before + inlineReading()) / 2
	}
	h.mu.Lock()
	var sum float64
	n := 0
	for i := len(h.samples) - 1; i >= 0 && h.samples[i].at.After(t0); i-- {
		sum += h.samples[i].scale
		n++
	}
	h.mu.Unlock()
	if n == 0 {
		return refLoop(sampledNominal)
	}
	return sum / float64(n)
}
