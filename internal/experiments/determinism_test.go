package experiments

import (
	"sync"
	"testing"

	"carf/internal/harden"
	"carf/internal/pipeline"
	"carf/internal/sched"
)

// determinismExperiments cover the distinct harvesting paths at a scale
// small enough to run many configurations: plain suite runs (table2),
// oracle-sampled runs (fig2), and the profiled CPI grid (cpistack).
var determinismExperiments = []string{"table2", "fig2", "cpistack"}

const determinismScale = 0.04

// render runs the experiment on an isolated scheduler under opt and
// returns the rendered text.
func render(t *testing.T, name string, opt Options) string {
	t.Helper()
	r, err := Run(name, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r.Render()
}

// TestRenderDeterminism is the PR's correctness gate: the rendered
// output of an experiment must not depend on the worker-pool size, on
// whether results come from fresh simulations or the memo cache, or on
// memoization being enabled at all.
func TestRenderDeterminism(t *testing.T) {
	for _, name := range determinismExperiments {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serial := sched.New(1)
			serial.DisableMemo()
			want := render(t, name, Options{Scale: determinismScale, Sched: serial})

			wide := sched.New(8)
			cold := render(t, name, Options{Scale: determinismScale, Sched: wide})
			if cold != want {
				t.Errorf("cold run at pool 8 differs from memo-off serial run:\n--- serial ---\n%s\n--- pool 8 ---\n%s", want, cold)
			}
			warm := render(t, name, Options{Scale: determinismScale, Sched: wide})
			if warm != want {
				t.Errorf("warm (all-hit) run differs from memo-off serial run:\n--- serial ---\n%s\n--- warm ---\n%s", want, warm)
			}
			if st := wide.Stats(); st.Misses == 0 || st.Hits == 0 {
				t.Errorf("cold+warm pair exercised misses=%d hits=%d; want both nonzero", st.Misses, st.Hits)
			}
		})
	}
}

// TestConcurrentExperimentsShareScheduler runs two experiments with an
// overlapping simulation set concurrently on one scheduler and checks
// both that outputs match their isolated runs and that sharing happened
// (the overlap was served by the cache or by joining in-flight runs).
func TestConcurrentExperimentsShareScheduler(t *testing.T) {
	names := []string{"table2", "fig5"} // both simulate the suites on baseline
	want := make([]string, len(names))
	for i, name := range names {
		want[i] = render(t, name, Options{Scale: determinismScale, Sched: sched.New(1)})
	}

	shared := sched.New(4)
	got := make([]string, len(names))
	err := sched.ForEach(len(names), func(i int) error {
		r, err := Run(names[i], Options{Scale: determinismScale, Sched: shared})
		if err != nil {
			return err
		}
		got[i] = r.Render()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if got[i] != want[i] {
			t.Errorf("%s: concurrent shared-scheduler output differs from isolated run", name)
		}
	}
	if st := shared.Stats(); st.Hits+st.Joins == 0 {
		t.Errorf("experiments with overlapping runs shared nothing (stats %+v)", st)
	}
}

// TestRunKeySeparation checks that every input that changes a run's
// result changes its memoization key — the cache must never serve a run
// from a different configuration.
func TestRunKeySeparation(t *testing.T) {
	base := Options{Scale: 0.25}
	cfg := pipeline.DefaultConfig()
	keys := map[sched.Key]string{}
	add := func(label string, k sched.Key) {
		t.Helper()
		if prev, ok := keys[k]; ok {
			t.Errorf("key collision: %q and %q digest identically", prev, label)
		}
		keys[k] = label
	}

	add("base", runKey("sim", base, "qsort", "baseline", cfg))
	add("kind", runKey("oracle", base, "qsort", "baseline", cfg))
	add("kernel", runKey("sim", base, "crc64", "baseline", cfg))
	add("spec", runKey("sim", base, "qsort", "unlimited", cfg))

	scaled := base
	scaled.Scale = 0.5
	add("scale", runKey("sim", scaled, "qsort", "baseline", cfg))

	ported := cfg
	ported.PortContention = true
	add("config", runKey("sim", base, "qsort", "baseline", ported))

	hardened := cfg
	hardened.Harden = harden.Options{Lockstep: true, SweepEvery: 64, WatchdogAfter: 20000}
	add("harden", runKey("sim", base, "qsort", "baseline", hardened))

	add("sampler 128", runKey("oracle", base, "qsort", "baseline", cfg, []int{8}, 128))
	add("sampler 64", runKey("oracle", base, "qsort", "baseline", cfg, []int{8}, 64))
	add("sampler ds", runKey("oracle", base, "qsort", "baseline", cfg, []int{8, 12}, 128))

	add("fault seed 1", sched.KeyOf("fault", "hashprobe", 0.25, faultParams(), hardened, harden.Fault{Cycle: 2000, Seed: 1}))
	add("fault seed 2", sched.KeyOf("fault", "hashprobe", 0.25, faultParams(), hardened, harden.Fault{Cycle: 2000, Seed: 2}))

	// Parallel and Sched are execution knobs, not result inputs: they
	// must NOT change the key, or identical runs would stop sharing.
	par := base
	par.Parallel = 8
	par.Sched = sched.New(2)
	if runKey("sim", par, "qsort", "baseline", cfg) != runKey("sim", base, "qsort", "baseline", cfg) {
		t.Error("Parallel/Sched changed the memoization key; identical runs would not share")
	}
}

// TestProgressObservationDeterminism extends the correctness gate to
// the progress plane: rendered output must be byte-identical with a
// progress callback attached or not, frames must be monotonic per run,
// and memo-off/memo-on observation must agree. Run keys digest the same
// inputs either way (the hook is installed out-of-band), so a cache
// populated by an unobserved run serves an observed one.
func TestProgressObservationDeterminism(t *testing.T) {
	const name = "table2"
	want := render(t, name, Options{Scale: determinismScale, Sched: sched.New(4)})

	s := sched.New(4)
	s.SetProgressInterval(0)
	var mu sync.Mutex
	frames := map[string][]sched.Progress{}
	got := render(t, name, Options{Scale: determinismScale, Sched: s,
		OnProgress: func(p sched.Progress) {
			mu.Lock()
			frames[p.Label] = append(frames[p.Label], p)
			mu.Unlock()
		}})
	if got != want {
		t.Errorf("observed run differs from unobserved run:\n--- unobserved ---\n%s\n--- observed ---\n%s", want, got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) == 0 {
		t.Fatal("no progress frames from a cold observed run")
	}
	for label, ps := range frames {
		if !ps[len(ps)-1].Final {
			t.Errorf("%s: last frame not Final", label)
		}
		for i := 1; i < len(ps); i++ {
			if ps[i].Insts < ps[i-1].Insts || ps[i].Cycles < ps[i-1].Cycles {
				t.Errorf("%s: frame %d not monotonic", label, i)
				break
			}
		}
		for i, p := range ps {
			if p.Target == 0 {
				t.Errorf("%s: frame %d missing target (budget pre-run not engaged)", label, i)
				break
			}
		}
	}

	// Warm pass: everything is memoized, so observation produces no
	// frames — and the rendered output still matches.
	var warmFrames int
	warm := render(t, name, Options{Scale: determinismScale, Sched: s,
		OnProgress: func(sched.Progress) { mu.Lock(); warmFrames++; mu.Unlock() }})
	if warm != want {
		t.Errorf("warm observed run differs from unobserved run")
	}
	if warmFrames != 0 {
		t.Errorf("warm (all-hit) run produced %d progress frames, want 0", warmFrames)
	}
}
