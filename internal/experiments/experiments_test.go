package experiments

import (
	"strconv"
	"strings"
	"testing"

	"carf/internal/core"
	"carf/internal/workload"
)

// Experiments are heavyweight; tests run them at a tiny scale and check
// the structural and directional properties the paper establishes.
var testOpt = Options{Scale: 0.04}

func pct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", cell, err)
	}
	return v
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 20 {
		t.Errorf("registry has %d experiments, want 20", len(names))
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Errorf("experiment %s has no description", n)
		}
	}
	if _, err := Run("nosuch", testOpt); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestFig1Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig1(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		var sum float64
		for _, cell := range row[1:] {
			sum += pct(t, cell)
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s: distribution sums to %.1f%%", row[0], sum)
		}
		// The most frequent value group must be substantial — the core
		// premise of frequent-value locality.
		if g1 := pct(t, row[1]); g1 < 5 {
			t.Errorf("%s: group 1 only %.1f%%", row[0], g1)
		}
	}
}

func TestFig2SimilarityGrowsWithD(t *testing.T) {
	t.Parallel()
	r, err := Fig2(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// REST shrinks (or at least does not grow) as d increases — larger
	// d merges more values into similarity groups.
	rest := func(i int) float64 { return pct(t, tb.Rows[i][6]) }
	if !(rest(0) >= rest(1) && rest(1) >= rest(2)) {
		t.Errorf("REST not non-increasing with d: %.1f, %.1f, %.1f", rest(0), rest(1), rest(2))
	}
	if g1 := pct(t, tb.Rows[0][1]); g1 < 15 {
		t.Errorf("(64-8)-similar group 1 = %.1f%%, implausibly low", g1)
	}
}

func TestFig5Knee(t *testing.T) {
	t.Parallel()
	r, err := Fig5(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	if len(tb.Rows) != len(dnSweep)+1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// INT relative IPC is non-decreasing in d+n (wider simple fields
	// only reduce long pressure) and ends near the baseline.
	var prev float64
	for i, row := range tb.Rows[:len(dnSweep)] {
		v := pct(t, row[1])
		if v < prev-1.5 { // small noise tolerance
			t.Errorf("INT relative IPC dropped at d+n=%s: %.1f after %.1f", row[0], v, prev)
		}
		if i == len(dnSweep)-1 && v < 90 {
			t.Errorf("INT relative IPC at widest d+n only %.1f%%", v)
		}
		prev = v
	}
	base := tb.Rows[len(dnSweep)]
	if base[0] != "baseline" {
		t.Fatalf("last row = %q", base[0])
	}
	if b := pct(t, base[1]); b < 85 {
		t.Errorf("baseline INT relative IPC %.1f%% implausible", b)
	}
}

func TestFig6LongShareShrinks(t *testing.T) {
	t.Parallel()
	r, err := Fig6(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range r.Tables {
		first := pct(t, tb.Rows[0][3])
		last := pct(t, tb.Rows[len(tb.Rows)-1][3])
		if last >= first {
			t.Errorf("%s: long share did not shrink with d+n (%.1f -> %.1f)", tb.Title, first, last)
		}
		for _, row := range tb.Rows {
			sum := pct(t, row[1]) + pct(t, row[2]) + pct(t, row[3])
			if sum < 99 || sum > 101 {
				t.Errorf("%s d+n=%s: shares sum to %.1f%%", tb.Title, row[0], sum)
			}
		}
	}
}

func TestFig7EnergyHalved(t *testing.T) {
	t.Parallel()
	r, err := Fig7(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	for _, row := range tb.Rows {
		carf, base := pct(t, row[1]), pct(t, row[2])
		if carf >= base {
			t.Errorf("d+n=%s: content-aware energy %.1f%% not below baseline %.1f%%", row[0], carf, base)
		}
	}
	// At the paper's design point the saving is roughly another 2x.
	for _, row := range tb.Rows {
		if row[0] == "20" {
			if carf := pct(t, row[1]); carf > 35 {
				t.Errorf("d+n=20 energy %.1f%% of unlimited; paper ~23-25%%", carf)
			}
		}
	}
}

func TestFig8AreaBelowBaseline(t *testing.T) {
	t.Parallel()
	r, err := Fig8(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Tables[0].Rows {
		if pct(t, row[1]) >= pct(t, row[2]) {
			t.Errorf("d+n=%s: area %.1f%% not below baseline %.1f%%", row[0], pct(t, row[1]), pct(t, row[2]))
		}
	}
}

func TestFig9SubFilesFaster(t *testing.T) {
	t.Parallel()
	r, err := Fig9(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Tables[0].Rows {
		base := pct(t, row[4])
		for col := 1; col <= 3; col++ {
			if pct(t, row[col]) >= base {
				t.Errorf("d+n=%s col %d: sub-file not faster than baseline", row[0], col)
			}
		}
	}
}

func TestTable2Direction(t *testing.T) {
	t.Parallel()
	r, err := Table2(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Tables[0].Rows {
		base, carf := pct(t, row[1]), pct(t, row[2])
		if carf <= base {
			t.Errorf("%s: content-aware bypass %.1f%% not above baseline %.1f%%", row[0], carf, base)
		}
	}
}

func TestTable3Trends(t *testing.T) {
	t.Parallel()
	r, err := Table3(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	rows := r.Tables[0].Rows
	for i := 1; i < len(rows); i++ {
		if pct(t, rows[i][1]) <= pct(t, rows[i-1][1]) {
			t.Error("simple per-access energy should grow with d+n")
		}
		if pct(t, rows[i][2]) >= pct(t, rows[i-1][2]) {
			t.Error("short per-access energy should shrink with d+n")
		}
		if pct(t, rows[i][3]) >= pct(t, rows[i-1][3]) {
			t.Error("long per-access energy should shrink with d+n")
		}
	}
	// Baseline constant, near the paper's 48.8% anchor.
	for _, row := range rows {
		if b := pct(t, row[4]); b < 40 || b > 55 {
			t.Errorf("baseline per-access %.1f%%, want ~49", b)
		}
	}
}

func TestTable4SumsToOne(t *testing.T) {
	t.Parallel()
	r, err := Table4(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, row := range r.Tables[0].Rows {
		sum += pct(t, row[1])
	}
	if sum < 99 || sum > 101 {
		t.Errorf("operand combinations sum to %.1f%%", sum)
	}
	// Same-type operations dominate (paper: >86%).
	same := pct(t, r.Tables[0].Rows[0][1]) + pct(t, r.Tables[0].Rows[1][1]) + pct(t, r.Tables[0].Rows[2][1])
	if same < 55 {
		t.Errorf("same-type operations only %.1f%%", same)
	}
}

func TestSweepsRun(t *testing.T) {
	t.Parallel()
	r, err := Sweeps(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 3 {
		t.Fatalf("tables = %d", len(r.Tables))
	}
	long := r.Tables[1]
	if len(long.Rows) != 4 {
		t.Fatalf("long sweep rows = %d", len(long.Rows))
	}
	// Average live long registers should be plausible and identical
	// across capacities big enough to never constrain.
	for _, row := range long.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil || v <= 0 || v > 48 {
			t.Errorf("avg live long = %q", row[3])
		}
	}
	// Port sweep: 8R/6W must be nearly free; 2R/2W must visibly bind.
	ports := r.Tables[2]
	if len(ports.Rows) != 5 {
		t.Fatalf("port sweep rows = %d", len(ports.Rows))
	}
	if v := pct(t, ports.Rows[2][1]); v < 98 {
		t.Errorf("8R/6W IPC %.1f%% of 16R/8W; paper says ~99.6%%", v)
	}
	if v := pct(t, ports.Rows[4][1]); v >= pct(t, ports.Rows[2][1]) {
		t.Errorf("2R/2W (%.1f%%) should bind harder than 8R/6W", v)
	}
}

// TestSweepsSection4Claims checks two §4 sizing claims at scale 0.05:
// the Short file's size barely matters (the 2/8/32-entry rows lie
// within 0.5 points of each other on INT and FP), and 48 Long
// registers match 112 (within 0.1 points).
func TestSweepsSection4Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	r, err := Run("sweeps", Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	short, long := r.Tables[0], r.Tables[1]
	rowOf := func(label string) []string {
		for _, row := range long.Rows {
			if row[0] == label {
				return row
			}
		}
		t.Fatalf("long sweep has no %s row", label)
		return nil
	}
	for col := 1; col <= 2; col++ {
		suite := short.Header[col]
		lo, hi := pct(t, short.Rows[0][col]), pct(t, short.Rows[0][col])
		for _, row := range short.Rows[1:] {
			v := pct(t, row[col])
			lo, hi = min(lo, v), max(hi, v)
		}
		if hi-lo > 0.5 {
			t.Errorf("%s: short-size rows span %.1f..%.1f%%, want within 0.5 points", suite, lo, hi)
		}
		l48, l112 := pct(t, rowOf("48")[col]), pct(t, rowOf("112")[col])
		if d := l48 - l112; d > 0.1 || d < -0.1 {
			t.Errorf("%s: 48 long registers at %.1f%%, 112 at %.1f%%, want within 0.1 points", suite, l48, l112)
		}
	}
}

func TestExtensionsRun(t *testing.T) {
	t.Parallel()
	r, err := Extensions(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 6 {
		t.Fatalf("tables = %d", len(r.Tables))
	}
	cam := r.Tables[0]
	if e := pct(t, cam.Rows[1][2]); e <= 100 {
		t.Errorf("CAM short-file energy %.1f%% should exceed direct-indexed", e)
	}
	smt := r.Tables[2]
	if len(smt.Rows) != 3 {
		t.Fatalf("smt rows = %d", len(smt.Rows))
	}
	for _, row := range smt.Rows {
		if v := pct(t, row[2]); v < 30 || v > 105 {
			t.Errorf("SMT %s: sharing efficiency %.1f%% implausible", row[0], v)
		}
	}
	smtPol := r.Tables[3]
	if len(smtPol.Rows) != 2 {
		t.Fatalf("smt policy rows = %d", len(smtPol.Rows))
	}
	policy := r.Tables[4]
	if len(policy.Rows) != 3 {
		t.Fatalf("policy rows = %d", len(policy.Rows))
	}
	// The never-free policy cannot reclaim anything.
	if policy.Rows[2][3] != "0" {
		t.Errorf("never policy freed %s entries", policy.Rows[2][3])
	}
	bypass := r.Tables[5]
	if len(bypass.Rows) != 2 {
		t.Fatalf("bypass rows = %d", len(bypass.Rows))
	}
	// Removing the extra level reduces the bypassed-operand share.
	if pct(t, bypass.Rows[1][2]) >= pct(t, bypass.Rows[0][2]) {
		t.Error("one bypass level should serve fewer operands than two")
	}
}

func TestMemlocShape(t *testing.T) {
	t.Parallel()
	r, err := Memloc(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		// Coverage must be non-decreasing in d (coarser similarity).
		if !(pct(t, row[2]) <= pct(t, row[3])+0.01 && pct(t, row[3]) <= pct(t, row[4])+0.01) {
			t.Errorf("%s/%s coverage not monotone: %s %s %s", row[0], row[1], row[2], row[3], row[4])
		}
	}
	// Address streams carry strong partial locality at d=16.
	if v := pct(t, tb.Rows[0][3]); v < 50 {
		t.Errorf("int address coverage at d=16 only %.1f%%", v)
	}
}

func TestWrongPathAblation(t *testing.T) {
	t.Parallel()
	r, err := WrongPath(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Wrong-path mode must add register file energy for both
	// organizations (rows 1 and 3 are the wrong-path rows).
	for _, i := range []int{1, 3} {
		if v := pct(t, tb.Rows[i][3]); v <= 100 {
			t.Errorf("%s: wrong-path energy %.1f%% not above stall mode", tb.Rows[i][0], v)
		}
	}
}

func TestClusterStudy(t *testing.T) {
	t.Parallel()
	r, err := Cluster(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	typeIPC, rrIPC := pct(t, tb.Rows[1][1]), pct(t, tb.Rows[2][1])
	typeCross, rrCross := pct(t, tb.Rows[1][2]), pct(t, tb.Rows[2][2])
	if typeCross >= rrCross {
		t.Errorf("type steering crosses %.1f%%, round-robin %.1f%%: type should cross less", typeCross, rrCross)
	}
	if typeIPC < rrIPC-0.5 {
		t.Errorf("type-steered IPC %.1f%% below round-robin %.1f%%", typeIPC, rrIPC)
	}
	if typeIPC > 101 || typeIPC < 70 {
		t.Errorf("type-steered IPC %.1f%% implausible", typeIPC)
	}
}

func TestPhasesShape(t *testing.T) {
	t.Parallel()
	r, err := Phases(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d", len(r.Tables))
	}
	ipcT, occT := r.Tables[0], r.Tables[1]
	nInt := len(workload.IntSuite(1))
	if len(ipcT.Rows) != nInt || len(occT.Rows) != nInt {
		t.Fatalf("rows = %d/%d, want %d (one per int kernel)", len(ipcT.Rows), len(occT.Rows), nInt)
	}
	p := core.DefaultParams()
	for i, row := range ipcT.Rows {
		n, err := strconv.Atoi(row[1])
		if err != nil || n < 1 {
			t.Errorf("%s: sample count %q", row[0], row[1])
		}
		mean, _ := strconv.ParseFloat(row[2], 64)
		lo, _ := strconv.ParseFloat(row[4], 64)
		hi, _ := strconv.ParseFloat(row[5], 64)
		if !(lo <= mean && mean <= hi) || hi <= 0 {
			t.Errorf("%s: interval IPC summary min %v mean %v max %v inconsistent", row[0], lo, mean, hi)
		}
		shortMax, _ := strconv.ParseFloat(occT.Rows[i][2], 64)
		longMax, _ := strconv.ParseFloat(occT.Rows[i][5], 64)
		if shortMax > float64(p.NumShort) || longMax > float64(p.NumLong) {
			t.Errorf("%s: occupancy max short %v long %v exceed structural bounds", row[0], shortMax, longMax)
		}
	}
}

func TestKernelsTable(t *testing.T) {
	t.Parallel()
	r, err := Kernels(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Tables[0]
	if len(tb.Rows) != 22 {
		t.Fatalf("rows = %d, want one per kernel", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if v := pct(t, row[5]); v < 70 || v > 103 {
			t.Errorf("%s: carf/base IPC %.1f%% implausible", row[0], v)
		}
	}
}

func TestCPIStackStudy(t *testing.T) {
	t.Parallel()
	r, err := CPIStackStudy(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d", len(r.Tables))
	}
	shares := r.Tables[0]
	if len(shares.Rows) != 4*3 {
		t.Fatalf("share rows = %d, want 4 kernels x 3 orgs", len(shares.Rows))
	}
	var rfSeen bool
	for _, row := range shares.Rows {
		// Conservative accounting: the category shares sum to 100%.
		var sum float64
		for _, cell := range row[3:] {
			sum += pct(t, cell)
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s/%s: shares sum to %.2f%%", row[0], row[1], sum)
		}
		// The commit (useful-slot) share must be nonzero everywhere.
		if pct(t, row[3]) <= 0 {
			t.Errorf("%s/%s: zero commit share", row[0], row[1])
		}
		// row[1] is the org; rf categories are rf-long/rf-spill/rf-free
		// at header positions 9, 10, 11.
		if row[1] == "carf-8long" {
			if pct(t, row[9])+pct(t, row[10])+pct(t, row[11]) > 0 {
				rfSeen = true
			}
		}
	}
	if !rfSeen {
		t.Error("no kernel shows register-file stall slots even with an 8-entry Long file")
	}

	// Delta table: every decomposition must reconstruct dCPI from its
	// components (d other is defined as the residual, so check the
	// CPI columns are positive and finite instead).
	deltas := r.Tables[1]
	if len(deltas.Rows) != 4*2 {
		t.Fatalf("delta rows = %d, want 4 kernels x 2 carf orgs", len(deltas.Rows))
	}
	for _, row := range deltas.Rows {
		base, _ := strconv.ParseFloat(row[2], 64)
		carf, _ := strconv.ParseFloat(row[3], 64)
		if base <= 0 || carf <= 0 {
			t.Errorf("%s/%s: CPI base %v carf %v", row[0], row[1], base, carf)
		}
	}
}

func TestCalibrationRobustness(t *testing.T) {
	t.Parallel()
	r, err := Calibration(testOpt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Tables[0].Rows {
		if v := pct(t, row[3]); v >= 100 {
			t.Errorf("calibration %s/%s: carf energy %.1f%% of baseline — saving lost", row[0], row[1], v)
		}
		if v := pct(t, row[4]); v >= 100 {
			t.Errorf("calibration %s/%s: carf area %.1f%% of baseline", row[0], row[1], v)
		}
		if v := pct(t, row[5]); v >= 100 {
			t.Errorf("calibration %s/%s: carf access time %.1f%% of baseline", row[0], row[1], v)
		}
	}
}

func TestRunPopulatesSchedStats(t *testing.T) {
	r, err := Run("fig6", testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched.Runs == 0 {
		t.Fatalf("Result.Sched not populated: %+v", r.Sched)
	}
	if got := r.Sched.Misses + r.Sched.Hits + r.Sched.Joins; got != r.Sched.Runs {
		t.Errorf("outcome counts %d don't add up to runs %d", got, r.Sched.Runs)
	}
	// A second identical run is served from the memo cache: same number
	// of requests, all of them hits or joins, none simulated fresh.
	r2, err := Run("fig6", testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Sched.Runs != r.Sched.Runs {
		t.Errorf("rerun issued %d requests, first run %d", r2.Sched.Runs, r.Sched.Runs)
	}
	if r2.Sched.Misses != 0 {
		t.Errorf("rerun simulated %d fresh runs, want 0 (all cached)", r2.Sched.Misses)
	}
}
