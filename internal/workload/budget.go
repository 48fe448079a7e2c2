package workload

import (
	"sync"

	"carf/internal/vm"
)

// budgetMemo caches dynamic-instruction budgets per (kernel, scale):
// kernels are deterministic, so one functional execution pins the count
// for every later run at the same scale. The map is tiny (kernels ×
// distinct scales) and lives for the process.
var (
	budgetMu   sync.Mutex
	budgetMemo = map[kernelKey]uint64{}
)

// kernelKey names one kernel at one scale (the budget and Ref memos).
type kernelKey struct {
	name  string
	scale float64
}

// Budget returns kernel k's dynamic-instruction count at the given
// scale — the denominator for progress percentages and ETA estimates.
// The first call per (kernel, scale) executes the program functionally
// on the vm golden model (a few milliseconds, far below one pipeline
// simulation); later calls are a map lookup. A kernel that fails to
// execute reports budget 0 ("unknown"), never an error: progress
// reporting is advisory and must not fail a run.
func Budget(k Kernel, scale float64) uint64 {
	key := kernelKey{k.Name, scale}
	budgetMu.Lock()
	if n, ok := budgetMemo[key]; ok {
		budgetMu.Unlock()
		return n
	}
	budgetMu.Unlock()

	// Execute outside the lock: two racing callers both simulate, both
	// store the same deterministic count.
	m := vm.New(k.Prog)
	n, err := m.Run(0)
	m.Mem.Release()
	if err != nil {
		return 0
	}
	budgetMu.Lock()
	budgetMemo[key] = n
	budgetMu.Unlock()
	return n
}
