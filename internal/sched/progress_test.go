package sched

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestDoProgressNilReportWhenUnobserved: with no observer and no
// onProgress callback, the body must receive a nil report function —
// silent runs pay nothing for the progress plane.
func TestDoProgressNilReportWhenUnobserved(t *testing.T) {
	s := New(2)
	var gotReport ProgressFunc
	_, prov, err := s.DoProgress(context.Background(), KeyOf("silent"), "", true, nil,
		func(report ProgressFunc) (any, error) {
			gotReport = report
			return 1, nil
		})
	if err != nil || prov.Outcome != Miss {
		t.Fatalf("prov=%+v err=%v", prov, err)
	}
	if gotReport != nil {
		t.Error("body received a non-nil report with nobody watching")
	}
}

// TestDoProgressStamping: the reporter stamps ElapsedSeconds,
// InstsPerSec and ETASeconds onto body frames, derives the ETA from the
// Target the body stamped (the only source of a target), and forwards
// the frames to both the observer and the caller's onProgress.
func TestDoProgressStamping(t *testing.T) {
	s := New(2)
	s.SetProgressInterval(0) // forward every frame

	var mu sync.Mutex
	var got []Progress
	on := func(p Progress) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	}
	_, prov, err := s.DoProgress(context.Background(), KeyOf("stamped"), "", true, on,
		func(report ProgressFunc) (any, error) {
			if report == nil {
				t.Error("body received a nil report with an onProgress caller")
				return nil, nil
			}
			report(Progress{Cycles: 100, Insts: 250, Target: 1000})
			time.Sleep(5 * time.Millisecond) // a nonzero elapsed for the rate
			report(Progress{Cycles: 200, Insts: 500, Target: 1000})
			report(Progress{Cycles: 400, Insts: 1000, Target: 1000, Final: true})
			return 1, nil
		})
	if err != nil || prov.Outcome != Miss {
		t.Fatalf("prov=%+v err=%v", prov, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("forwarded %d frames, want 3 (interval 0 forwards all)", len(got))
	}
	for i, p := range got {
		if p.Target != 1000 {
			t.Errorf("frame %d target %d, want the body's 1000", i, p.Target)
		}
		if i > 0 && (p.Insts < got[i-1].Insts || p.Cycles < got[i-1].Cycles) {
			t.Errorf("frame %d not monotonic after %d", i, i-1)
		}
	}
	mid := got[1]
	if mid.ElapsedSeconds <= 0 || mid.InstsPerSec <= 0 {
		t.Errorf("mid frame not stamped: elapsed=%v rate=%v", mid.ElapsedSeconds, mid.InstsPerSec)
	}
	// ETA sanity: remaining work over the observed rate, and consistent
	// with the frame's own fields.
	wantETA := float64(mid.Target-mid.Insts) / mid.InstsPerSec
	if diff := mid.ETASeconds - wantETA; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mid frame ETA %v, want (target-insts)/rate = %v", mid.ETASeconds, wantETA)
	}
	if p := mid.Pct; p <= 0 || p >= 1 {
		t.Errorf("mid frame pct %v, want within (0,1)", p)
	}
	final := got[2]
	if !final.Final {
		t.Error("last frame not Final")
	}
	if final.ETASeconds != 0 {
		t.Errorf("final frame ETA %v, want 0 (nothing remains)", final.ETASeconds)
	}
	if final.Pct != 1 {
		t.Errorf("final frame pct %v, want 1", final.Pct)
	}
}

// TestDoProgressThrottle: at a long interval only the first frame and
// Final frames pass; the flood in between is thinned.
func TestDoProgressThrottle(t *testing.T) {
	s := New(2)
	s.SetProgressInterval(time.Hour)
	var got []Progress
	_, _, err := s.DoProgress(context.Background(), KeyOf("throttled"), "", true,
		func(p Progress) { got = append(got, p) },
		func(report ProgressFunc) (any, error) {
			for i := 1; i <= 100; i++ {
				report(Progress{Insts: uint64(i)})
			}
			report(Progress{Insts: 101, Final: true})
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("forwarded %d frames, want 2 (first + final)", len(got))
	}
	if got[0].Insts != 1 || !got[1].Final {
		t.Errorf("frames %+v, want the first flood frame then the final", got)
	}
}

// TestDoProgressObserverReceives: an attached Observer gets frames for
// the run id even without a caller onProgress — and hits produce none.
func TestDoProgressObserverReceives(t *testing.T) {
	s := New(2)
	s.SetProgressInterval(0)
	obs := newRecObserver()
	s.SetObserver(obs)
	body := func(report ProgressFunc) (any, error) {
		if report != nil {
			report(Progress{Insts: 5})
			report(Progress{Insts: 10, Final: true})
		}
		return 1, nil
	}
	_, prov, err := s.DoProgress(context.Background(), KeyOf("observed"), "lbl", true, nil, body)
	if err != nil || prov.Outcome != Miss {
		t.Fatalf("prov=%+v err=%v", prov, err)
	}
	countFrames := func() (ids, frames int, lastFinal bool) {
		obs.mu.Lock()
		defer obs.mu.Unlock()
		for _, ps := range obs.progressed {
			ids++
			frames += len(ps)
			lastFinal = ps[len(ps)-1].Final
			for _, p := range ps {
				if p.Label != "lbl" || p.Pct != -1 {
					t.Errorf("frame label %q pct %v, want the run's label and -1 (no target)", p.Label, p.Pct)
				}
			}
		}
		return
	}
	ids, frames, lastFinal := countFrames()
	if ids != 1 || frames != 2 || !lastFinal {
		t.Fatalf("observer saw %d frames across %d runs (final=%v), want 2 on 1 run ending Final",
			frames, ids, lastFinal)
	}

	// A cache hit does no work: no new frames appear anywhere.
	_, prov2, err := s.DoProgress(context.Background(), KeyOf("observed"), "lbl", true, nil, body)
	if err != nil || prov2.Outcome != Hit {
		t.Fatalf("second call prov=%+v err=%v", prov2, err)
	}
	if ids, frames, _ := countFrames(); ids != 1 || frames != 2 {
		t.Errorf("cache hit changed the frame record: %d frames across %d runs, want 2 on 1", frames, ids)
	}
}
