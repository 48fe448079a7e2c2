package pipeline

import (
	"context"
	"sync"
	"testing"

	"carf/internal/cache"
	"carf/internal/core"
	"carf/internal/regfile"
	"carf/internal/vm"
	"carf/internal/workload"
)

// TestExtremeConfigurations squeezes every structural resource to (or
// near) its minimum and requires the machine to stay correct — the
// structural-hazard paths (ROB full, IQ full, LSQ full, tag starvation,
// single-issue, tiny caches) must only ever cost time. The subtests run
// in parallel, and every finished run hands its tables and memory pages
// to whichever runs next (hashprobe dirties over a hundred pages), so
// under -race this also checks recycling across concurrent
// simulations, an SMT pair's shared register file among them; each
// run's checksum would catch a page or table shared by two.
func TestExtremeConfigurations(t *testing.T) {
	k, err := workload.ByName("rle", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	kfp, err := workload.ByName("nbody", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	khash, err := workload.ByName("hashprobe", 0.04)
	if err != nil {
		t.Fatal(err)
	}

	configs := map[string]func(*Config){
		"tiny-rob": func(c *Config) { c.ROBSize = 8 },
		"tiny-iq":  func(c *Config) { c.IntQueue, c.FPQueue = 2, 2 },
		"tiny-lsq": func(c *Config) { c.LSQSize = 2 },
		"width-1": func(c *Config) {
			c.FetchWidth, c.IssueWidth, c.CommitWidth = 1, 1, 1
			c.IntUnits, c.FPUnits, c.DCachePorts = 1, 1, 1
		},
		"deep-front": func(c *Config) { c.FrontLatency = 6 },
		"tiny-caches": func(c *Config) {
			c.Hierarchy.L1I = cache.Config{Name: "L1I", SizeBytes: 1024, LineBytes: 64, Ways: 1, HitLatency: 1}
			c.Hierarchy.L1D = cache.Config{Name: "L1D", SizeBytes: 1024, LineBytes: 64, Ways: 1, HitLatency: 1}
			c.Hierarchy.L2 = cache.Config{Name: "L2", SizeBytes: 8192, LineBytes: 64, Ways: 2, HitLatency: 10}
		},
		"few-fp-regs": func(c *Config) { c.NumFPRegs = 40 }, // 32 arch + 8 in flight
		"no-btb":      func(c *Config) { c.BTBEntries = 1; c.RASDepth = 1 },
	}

	// SMT pairs, each two threads on one shared content-aware file, two
	// pairs at a time beside the runs above: both threads' Finalize
	// release the shared file, which must go back once, or the next
	// two pairs would share its tables.
	t.Run("smt-shared-file", func(t *testing.T) {
		t.Parallel()
		kerns := []workload.Kernel{k, khash}
		var first [2]Stats
		for i := 0; i < 3; i++ {
			var sts [2][2]Stats
			var wg sync.WaitGroup
			for p := range sts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					smt := NewSMT(DefaultConfig(), [2]*vm.Program{k.Prog, khash.Prog}, core.New(core.DefaultParams()))
					st, err := smt.RunContext(context.Background(), Observe{})
					if err != nil {
						t.Error(err)
						return
					}
					for j, kern := range kerns {
						if got := smt.Thread(j).Machine().X[workload.ResultReg]; got != kern.Expected {
							t.Errorf("SMT thread %d (%s): result %#x, want %#x", j, kern.Name, got, kern.Expected)
						}
					}
					sts[p] = st
				}()
			}
			wg.Wait()
			if i == 0 {
				first = sts[0]
			}
			for p, st := range sts {
				if st != first {
					t.Errorf("SMT pair %d of round %d reports %+v, the first reported %+v", p, i, st, first)
				}
			}
		}
	})
	for name, tweak := range configs {
		name, tweak := name, tweak
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, kern := range []workload.Kernel{k, kfp, khash} {
				for _, model := range []regfile.Model{regfile.Baseline(), core.New(core.DefaultParams())} {
					cfg := DefaultConfig()
					tweak(&cfg)
					cpu := New(cfg, kern.Prog, model)
					st, err := cpu.Run()
					if err != nil {
						t.Fatalf("%s on %s: %v", kern.Name, model.Name(), err)
					}
					if got := cpu.Machine().X[workload.ResultReg]; got != kern.Expected {
						t.Errorf("%s on %s: result %#x, want %#x", kern.Name, model.Name(), got, kern.Expected)
					}
					if st.ValueMismatches != 0 {
						t.Errorf("%s on %s: reconstruction mismatches", kern.Name, model.Name())
					}
					// Constrained machines must be slower than (or equal
					// to) the committed-instruction count allows.
					if st.IPC() > float64(cfg.IssueWidth) {
						t.Errorf("%s: IPC %.2f exceeds issue width %d", name, st.IPC(), cfg.IssueWidth)
					}
				}
			}
		})
	}
}

// TestTinyCARFConfigs sweeps pathologically small content-aware files;
// every combination must stay architecturally exact.
func TestTinyCARFConfigs(t *testing.T) {
	k, err := workload.ByName("hashprobe", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	for _, short := range []int{2, 4} {
		for _, long := range []int{4, 12} {
			for _, dn := range []int{10, 20, 30} {
				p := core.DefaultParams()
				p.NumShort, p.NumLong, p.DPlusN = short, long, dn
				if err := p.Validate(); err != nil {
					continue
				}
				cpu := New(DefaultConfig(), k.Prog, core.New(p))
				st, err := cpu.Run()
				if err != nil {
					t.Fatalf("M=%d K=%d dn=%d: %v", short, long, dn, err)
				}
				if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
					t.Errorf("M=%d K=%d dn=%d: result %#x, want %#x", short, long, dn, got, k.Expected)
				}
				if st.ValueMismatches != 0 {
					t.Errorf("M=%d K=%d dn=%d: mismatches", short, long, dn)
				}
			}
		}
	}
}
