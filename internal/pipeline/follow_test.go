package pipeline

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/vm"
	"carf/internal/workload"
)

// carfWith returns a fresh content-aware file with the default
// parameters as edit leaves them.
func carfWith(edit func(*core.Params)) *core.File {
	p := core.DefaultParams()
	edit(&p)
	return core.New(p)
}

// TestFollowerMatchesStandalone runs kernels with followers of several
// shapes and checks each: a follower that stayed in step reports
// exactly what the same model reports simulated alone — pipeline Stats
// and the model's own statistics — and the leader is undisturbed. The
// CAM, 2-Short and refcount files keep the default's timing on these
// kernels; d+n = 8 leaves it on some. A model of another type or tag
// count is dropped before the first cycle; the 8-Long file leaves the
// default's timing.
func TestFollowerMatchesStandalone(t *testing.T) {
	followers := map[string]func() regfile.Model{
		"dn8":      func() regfile.Model { return carfWith(func(p *core.Params) { p.DPlusN = 8 }) },
		"cam":      func() regfile.Model { return carfWith(func(p *core.Params) { p.CAMShort = true }) },
		"short2":   func() regfile.Model { return carfWith(func(p *core.Params) { p.NumShort = 2 }) },
		"refcount": func() regfile.Model { return carfWith(func(p *core.Params) { p.ShortFree = core.FreeRefCount }) },
		"long8":    func() regfile.Model { return carfWith(func(p *core.Params) { p.NumLong = 8 }) },
		"simple96": func() regfile.Model { return carfWith(func(p *core.Params) { p.NumSimple = 96 }) },
		"baseline": func() regfile.Model { return regfile.Baseline() },
	}
	names := []string{"dn8", "cam", "short2", "refcount", "long8", "simple96", "baseline"}
	for _, kernel := range []string{"qsort", "crc64", "hashprobe"} {
		k, err := workload.ByName(kernel, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		lead := carfModel()
		cpu := New(DefaultConfig(), k.Prog, lead)
		models := make([]regfile.Model, len(names))
		for i, n := range names {
			models[i] = followers[n]()
		}
		if err := cpu.Follow(models...); err != nil {
			t.Fatal(err)
		}
		st, err := cpu.Run()
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		if cpu.Model() != lead {
			t.Errorf("%s: Model() is not the leader", kernel)
		}
		alone := carfModel()
		if want := runKernel(t, k, alone); st != want {
			t.Errorf("%s: leader stats %+v, alone %+v", kernel, st, want)
		}
		if got, want := viewOf(lead.(*core.File)), viewOf(alone.(*core.File)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: leader model %+v, alone %+v", kernel, got, want)
		}
		for i, n := range names {
			fst, ok := cpu.Follower(i)
			switch n {
			case "simple96", "baseline", "long8":
				if ok {
					t.Errorf("%s: follower %s stayed in step", kernel, n)
				}
				continue
			case "cam", "short2", "refcount":
				if !ok {
					t.Errorf("%s: follower %s was dropped", kernel, n)
				}
			}
			if !ok {
				continue
			}
			m := followers[n]()
			if want := runKernel(t, k, m); fst != want {
				t.Errorf("%s: follower %s stats %+v, alone %+v", kernel, n, fst, want)
			}
			if got, want := viewOf(models[i].(*core.File)), viewOf(m.(*core.File)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: follower %s model %+v, alone %+v", kernel, n, got, want)
			}
		}
	}
}

// skewModel is a content-aware file that, when skew is set, answers
// one timing-relevant question wrongly once at its 50th call.
type skewModel struct {
	*core.File
	skew  string // "alloc", "trywrite", "longstall", "readvalue" or ""
	calls int
}

func (m *skewModel) flip(which string) bool {
	if m.skew != which {
		return false
	}
	m.calls++
	return m.calls == 50
}

func (m *skewModel) Alloc() (int, bool) {
	tag, ok := m.File.Alloc()
	if m.flip("alloc") {
		tag++
	}
	return tag, ok
}

func (m *skewModel) TryWrite(tag int, v uint64) bool {
	return m.File.TryWrite(tag, v) != m.flip("trywrite")
}

func (m *skewModel) LongStall(threshold int) bool {
	return m.File.LongStall(threshold) != m.flip("longstall")
}

func (m *skewModel) ReadValue(tag int) (uint64, bool) {
	v, ok := m.File.ReadValue(tag)
	if m.flip("readvalue") {
		v++
	}
	return v, ok
}

// TestFollowerDroppedAtDifferingAnswer pins the four comparisons: a
// follower that answers Alloc, TryWrite, LongStall or ReadValue
// differently from the leader even once is dropped, and one that never
// does stays in step.
func TestFollowerDroppedAtDifferingAnswer(t *testing.T) {
	k, err := workload.ByName("crc64", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	skews := []string{"", "alloc", "trywrite", "longstall", "readvalue"}
	models := make([]regfile.Model, len(skews))
	for i, s := range skews {
		models[i] = &skewModel{File: carfWith(func(*core.Params) {}), skew: s}
	}
	cpu := New(DefaultConfig(), k.Prog, &skewModel{File: carfWith(func(*core.Params) {})})
	if err := cpu.Follow(models...); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range skews {
		if _, ok := cpu.Follower(i); ok != (s == "") {
			t.Errorf("skew %q: in step = %v", s, ok)
		}
	}
}

// TestFollowRefusals: Follow attaches nothing once the run started, on
// an SMT thread, a clustered or a hardened core, or twice; RunContext
// refuses a followed run watched by Profile, Live or Trace.
func TestFollowRefusals(t *testing.T) {
	k, err := workload.ByName("crc64", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	follower := func() regfile.Model { return carfModel() }
	refuse := func(name string, cpu *CPU, want string) {
		t.Helper()
		if err := cpu.Follow(follower()); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Follow = %v, want an error mentioning %q", name, err, want)
		}
	}

	started := New(DefaultConfig(), k.Prog, carfModel())
	if _, err := started.RunChunk(10); err != nil {
		t.Fatal(err)
	}
	refuse("started", started, "started")

	refuse("smt", NewSMT(DefaultConfig(), [2]*vm.Program{k.Prog, k.Prog}, carfModel()).Thread(0), "SMT")

	clustered := DefaultConfig()
	clustered.Clusters = 2
	refuse("clustered", New(clustered, k.Prog, carfModel()), "clustered")

	hardened := DefaultConfig()
	hardened.Harden = harden.Options{Lockstep: true}
	refuse("hardened", New(hardened, k.Prog, carfModel()), "hardened")

	twice := New(DefaultConfig(), k.Prog, carfModel())
	if err := twice.Follow(follower()); err != nil {
		t.Fatal(err)
	}
	refuse("twice", twice, "twice")

	for name, obs := range map[string]Observe{
		"profile": {Profile: &profile.Profiler{}},
		"live":    {Live: &countingSampler{}, LivePeriod: 64},
		"trace":   {Trace: &TraceBuffer{}},
	} {
		cpu := New(DefaultConfig(), k.Prog, carfModel())
		if err := cpu.Follow(follower()); err != nil {
			t.Fatal(err)
		}
		if _, err := cpu.RunContext(context.Background(), obs); err == nil {
			t.Errorf("%s: a followed run watched by %s ran", name, name)
		}
	}
}
