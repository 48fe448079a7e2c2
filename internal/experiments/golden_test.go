package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The hot-loop optimization PR must leave every experiment's rendered
// output bit-identical: relative IPC, the energy and area tables, the
// CPI-stack decomposition, and the fault campaign's detection table.
// These goldens pin a representative slice of the registry at a small
// scale. Regenerate (only for intentional behaviour changes) with:
//
//	go test ./internal/experiments -run TestGoldenExperiments -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden experiment renderings")

var goldenExperiments = []string{"fig5", "fig6", "fig7", "table2", "table4", "sweeps", "ext", "cpistack", "faults"}

func TestGoldenExperimentsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiments are not short")
	}
	for _, name := range goldenExperiments {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := Run(name, Options{Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			rendered := res.Render()
			path := filepath.Join("testdata", "golden_"+name+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden data (run with -update-golden to record): %v", err)
			}
			if rendered != string(want) {
				t.Errorf("experiment %s output diverged from golden rendering:\n--- got ---\n%s\n--- want ---\n%s",
					name, rendered, want)
			}
		})
	}
}
