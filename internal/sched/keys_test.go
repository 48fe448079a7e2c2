package sched_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"carf"
	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/pipeline"
	"carf/internal/sched"
)

// goldenKeys builds one key of each shape the production call sites
// digest: a plain simulation (experiments.runKey's parts), a fault
// injection (core.Params and a harden.Fault by value), a memloc study
// (a []int part), and a carfserve kernel job (carf.Config).
func goldenKeys() []struct {
	name string
	key  sched.Key
} {
	cfg := pipeline.DefaultConfig()
	hardened := cfg
	hardened.Harden = harden.Options{Lockstep: true, SweepEvery: 64, WatchdogAfter: 20000}
	p := core.DefaultParams()
	p.NumShort = 16
	return []struct {
		name string
		key  sched.Key
	}{
		{"sim", sched.KeyOf("sim", "qsort", 0.25, "baseline", cfg)},
		{"fault", sched.KeyOf("fault", "hashprobe", 0.25, p, hardened,
			harden.Fault{Class: harden.FaultShortBit, Cycle: 2000, Seed: 3})},
		{"memloc", sched.KeyOf("memloc", "crc64", 0.25, []int{8, 16, 24}, 64)},
		{"serve-kernel", sched.KeyOf("serve-kernel", "qsort",
			carf.Config{Organization: carf.ContentAware, DPlusN: 20, Scale: 0.25})},
	}
}

// TestKeyGolden pins the hex digest of each golden key shape. A key
// that drifts across processes or builds (or after a change to a keyed
// struct) fails here instead of silently orphaning, or worse aliasing,
// blobs in every existing store.
func TestKeyGolden(t *testing.T) {
	var got strings.Builder
	for _, g := range goldenKeys() {
		fmt.Fprintf(&got, "%s %x\n", g.name, g.key)
	}
	want, err := os.ReadFile("testdata/keys.golden")
	if err != nil {
		t.Fatalf("read golden keys: %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("run keys drifted from testdata/keys.golden; if the change to a keyed struct is intended, the file becomes:\n%s", got.String())
	}
}

// TestKeyOfRejectsUnstableKinds: a struct holding a pointer, map, func,
// chan or interface has no canonical encoding, so KeyOf must panic and
// name the offending type rather than digest an address.
func TestKeyOfRejectsUnstableKinds(t *testing.T) {
	type withPointer struct{ P *int }
	type withMap struct{ M map[string]int }
	type withFunc struct{ F func() }
	type withChan struct{ C chan int }
	type withInterface struct{ I any }
	cases := []struct {
		kind string
		part any
		typ  string
	}{
		{"pointer", withPointer{}, "*int"},
		{"map", withMap{}, "map[string]int"},
		{"func", withFunc{}, "func()"},
		{"chan", withChan{}, "chan int"},
		{"interface", withInterface{I: 1}, "interface {}"},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("KeyOf(%T) did not panic", c.part)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, c.typ) {
					t.Fatalf("panic %q does not name %s", msg, c.typ)
				}
			}()
			sched.KeyOf("sim", c.part)
		})
	}
}

func BenchmarkKeyOf(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	spec := fmt.Sprintf("carf%+v", core.DefaultParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sched.KeyOf("sim", "qsort", 0.25, spec, cfg)
	}
}
