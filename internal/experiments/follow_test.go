package experiments

import (
	"reflect"
	"sync"
	"testing"

	"carf/internal/core"
	"carf/internal/pipeline"
	"carf/internal/sched"
	"carf/internal/workload"
)

// TestFollowersMatchStandalone runs every kernel once per batch of
// configurations the experiments request together, the default leading
// and the rest of the batch plus pressuredParams (8 Long registers)
// following, and checks every follower that stayed in step against the
// same configuration simulated alone: the whole runOut — pipeline
// statistics, access counts and content-aware statistics — must be
// equal. The pressured file must be reported diverged.
func TestFollowersMatchStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every kernel many times")
	}
	opt := testOpt.withDefaults()
	cfg := pipeline.DefaultConfig()
	lead := carfSpec(core.DefaultParams())
	batches := map[string][]core.Params{
		"d+n":      dnParams(),
		"sizes":    sizeParams(),
		"variants": variantParams(),
	}
	for name, ps := range batches {
		t.Run(name, func(t *testing.T) {
			var follow []modelSpec
			seen := map[string]bool{lead.id: true}
			for _, p := range append(ps, pressuredParams()) {
				if s := carfSpec(p); !seen[s.id] {
					seen[s.id] = true
					follow = append(follow, s)
				}
			}
			kernels := workload.AllKernels(opt.Scale)
			var mu sync.Mutex
			survived := 0
			err := sched.ForEach(len(kernels), func(i int) error {
				k := kernels[i]
				out, followed, err := simulate(opt, k, lead, cfg, nil, nil, follow...)
				if err != nil {
					return err
				}
				alone, _, err := simulate(opt, k, lead, cfg, nil, nil)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(out, alone) {
					t.Errorf("%s: the leader's result differs from its standalone run", k.Name)
				}
				if followed[len(follow)-1] != nil {
					t.Errorf("%s: the 8-long file stayed in step with the default", k.Name)
				}
				for j, o := range followed {
					if o == nil {
						continue
					}
					mu.Lock()
					survived++
					mu.Unlock()
					alone, _, err := simulate(opt, k, follow[j], cfg, nil, nil)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(*o, alone) {
						t.Errorf("%s on %s: follower result differs from the standalone run:\nfollower %+v\nalone    %+v",
							k.Name, follow[j].id, *o, alone)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Without survivors the comparison above checks nothing.
			t.Logf("%d kernels, %d followers each: %d stayed in step", len(kernels), len(follow), survived)
			if total := len(kernels) * (len(follow) - 1); survived*2 < total {
				t.Errorf("%d of %d followers stayed in step; want at least half", survived, total)
			}
		})
	}
}

// TestFollowersServeFig6 guards the gain: on a fresh scheduler, fig6's
// 154 runs (7 d+n points × 22 kernels) must mostly be served by
// followers of one pipeline run per kernel, and so must the rest of
// them when table4 ran first and its runs serve the default's. A
// simulation that runs reports a Final frame; a run served from a
// follower reports none.
func TestFollowersServeFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	for _, before := range []string{"", "table4"} {
		var mu sync.Mutex
		simulated := map[string]bool{}
		opt := testOpt
		opt.Sched = sched.New(2)
		if before != "" {
			if _, err := Run(before, opt); err != nil {
				t.Fatal(err)
			}
		}
		opt.OnProgress = func(p sched.Progress) {
			if p.Final {
				mu.Lock()
				simulated[p.Label] = true
				mu.Unlock()
			}
		}
		res, err := Run("fig6", opt)
		if err != nil {
			t.Fatal(err)
		}
		misses := int(res.Sched.Misses)
		served := misses - len(simulated)
		t.Logf("after %q: followers served %d of fig6's %d misses", before, served, misses)
		if want := 154 - int(res.Sched.Hits); misses != want {
			t.Fatalf("after %q: fig6 missed %d runs, want %d", before, misses, want)
		}
		if served < 100 {
			t.Errorf("after %q: followers served %d of fig6's %d misses, want at least 100", before, served, misses)
		}
	}
}
