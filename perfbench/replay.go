package main

import (
	"fmt"
	"time"

	"carf/internal/cache"
	"carf/internal/core"
	"carf/internal/isa"
	"carf/internal/pipeline"
	"carf/internal/predictor"
	"carf/internal/sched"
	"carf/internal/vm"
	"carf/internal/workload"
)

// streams is one kernel's functional execution as the layers the
// pipeline calls internally see it: instruction PCs (fetch), memory
// addresses (data accesses), integer register write values
// (classification) and conditional branch outcomes (prediction).
type streams struct {
	pcs      []uint64
	addrs    []uint64
	values   []uint64
	branchPC []uint64
	taken    []bool
}

// recordStreams executes k on the vm and records its streams.
func recordStreams(k workload.Kernel) (streams, error) {
	var s streams
	m := vm.New(k.Prog)
	for !m.Halted {
		pc := m.PC
		_, eff, err := m.Step()
		if err != nil {
			return s, fmt.Errorf("%s: %w", k.Name, err)
		}
		s.pcs = append(s.pcs, pc)
		if eff.Mem {
			s.addrs = append(s.addrs, eff.Addr)
		}
		if eff.WritesReg && eff.RdClass == isa.RegInt {
			s.values = append(s.values, eff.RdValue)
		}
		if eff.Branch {
			s.branchPC = append(s.branchPC, pc)
			s.taken = append(s.taken, eff.Taken)
		}
	}
	if got := m.X[workload.ResultReg]; got != k.Expected {
		return s, fmt.Errorf("%s: functional checksum %#x, want %#x", k.Name, got, k.Expected)
	}
	return s, nil
}

// probeReps repeats each replay so every probe times at least tens of
// milliseconds of work.
const probeReps = 3

// replayProbes times the layers the simulator calls internally, one at a
// time, over the kernels' recorded streams: a functional vm run, the
// content-aware file's classifier, the cache hierarchy, the gshare
// predictor, and the scheduler's key digest. It also reports the replayed
// hierarchy's miss rates (used where the workload runs no pipeline the
// benchmark can see).
func (r *run) replayProbes(kernels []workload.Kernel, scale float64) map[string]float64 {
	l := map[string]float64{}
	var all []streams
	for _, k := range kernels {
		s, err := recordStreams(k)
		r.check(err)
		all = append(all, s)
	}
	var sink uint64

	var vmNs time.Duration
	var vmInsts uint64
	for rep := 0; rep < probeReps; rep++ {
		for _, k := range kernels {
			m := vm.New(k.Prog)
			t0 := time.Now()
			n, err := m.Run(0)
			vmNs += time.Since(t0)
			r.check(err)
			vmInsts += n
		}
	}
	l["vm.ns_per_inst"] = float64(vmNs.Nanoseconds()) / float64(vmInsts)

	var clsNs time.Duration
	var clsN int
	for rep := 0; rep < probeReps; rep++ {
		for _, s := range all {
			f := core.New(core.DefaultParams())
			t0 := time.Now()
			for _, v := range s.values {
				sink += uint64(f.Classify(v))
			}
			clsNs += time.Since(t0)
			clsN += len(s.values)
		}
	}
	l["core.classify_ns"] = float64(clsNs.Nanoseconds()) / float64(clsN)

	cfg := pipeline.DefaultConfig()
	var cacheNs time.Duration
	var accesses int
	var l1dM, l1dA, l2M, l2A uint64
	for rep := 0; rep < probeReps; rep++ {
		for _, s := range all {
			h, err := cache.NewHierarchy(cfg.Hierarchy)
			if err != nil {
				r.check(err)
				continue
			}
			t0 := time.Now()
			for _, pc := range s.pcs {
				sink += uint64(h.FetchLatency(pc))
			}
			for _, a := range s.addrs {
				sink += uint64(h.DataLatency(a))
			}
			cacheNs += time.Since(t0)
			accesses += len(s.pcs) + len(s.addrs)
			if rep == 0 {
				l1dM, l1dA = l1dM+h.L1D.Stats().Misses, l1dA+h.L1D.Stats().Accesses
				l2M, l2A = l2M+h.L2.Stats().Misses, l2A+h.L2.Stats().Accesses
			}
		}
	}
	l["cache.ns_per_access"] = float64(cacheNs.Nanoseconds()) / float64(accesses)
	l["cache.l1d_miss_rate"] = float64(l1dM) / float64(l1dA)
	l["cache.l2_miss_rate"] = float64(l2M) / float64(l2A)

	var bpNs time.Duration
	var branches int
	for rep := 0; rep < probeReps; rep++ {
		for _, s := range all {
			g := predictor.NewGshare(cfg.Gshare)
			t0 := time.Now()
			for i, pc := range s.branchPC {
				if g.Predict(pc) {
					sink++
				}
				g.Update(pc, s.taken[i])
			}
			bpNs += time.Since(t0)
			branches += len(s.branchPC)
		}
	}
	l["predictor.ns_per_branch"] = float64(bpNs.Nanoseconds()) / float64(branches)

	// The key parts a plain simulation request digests: kind, kernel,
	// scale, model spec id and pipeline configuration.
	specs := []string{"baseline", "unlimited", fmt.Sprintf("carf%+v", core.DefaultParams())}
	var keyNs time.Duration
	var keys int
	for rep := 0; rep < 10*probeReps; rep++ {
		t0 := time.Now()
		for _, k := range kernels {
			for _, spec := range specs {
				key := sched.KeyOf("sim", k.Name, scale, spec, cfg)
				sink += uint64(key[0])
			}
		}
		keyNs += time.Since(t0)
		keys += len(kernels) * len(specs)
	}
	l["sched.keyof_us"] = float64(keyNs.Nanoseconds()) / float64(keys) / 1e3
	r.note("replay_sink", fmt.Sprint(sink))
	return l
}
