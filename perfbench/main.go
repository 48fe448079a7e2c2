// Command perfbench is the repository's benchmark: it runs one named
// workload for a timed window, checks every output against digests kept
// beside it, and prints its metrics with units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// spans recorded. With --trace 1 the run is traced instead: spans are
// kept in memory around every call the benchmark makes into a layer,
// written to .bench_build/traces/ at exit, and reduced to per-layer
// metrics. README.md in this directory explains each workload and maps
// every metric to the layer it measures.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload sim-suite --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --record   # print the expected digests of every workload
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner and to whether it runs
// on one goroutine (hostref.go).
var workloads = map[string]struct {
	run       func(*run) error
	goroutine bool
}{
	"sim-suite":  {simSuite, true},
	"study-cold": {studyCold, false},
	"study-warm": {studyWarm, false},
}

// errGate marks a run that cannot print a trustworthy number: a count
// gate failed (the wrong number of simulations ran, a warm pass
// simulated, the two halves of a pair committed different counts).
var errGate = errors.New("count gate failed")

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload to run: sim-suite, study-cold or study-warm")
		seed    = flag.Int64("seed", 1, "seed for the order of kernel pairs and experiments")
		seconds = flag.Int("seconds", 20, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
		record  = flag.Bool("record", false, "print the expected digests of every workload as JSON and exit")
	)
	flag.Parse()
	// The load is one process on at most nproc threads; before Go 1.25
	// the runtime default ignores a container's CPU quota.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), nproc()))

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *record {
		if err := recordDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sim-suite, study-cold, study-warm), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	r := &run{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		tmp:      tmp,
		rng:      rand.New(rand.NewSource(*seed)),
		host:     newHostRef(wl.goroutine),
	}
	defer r.host.close()
	if r.traced {
		r.spans = newTracer()
	}
	if err := wl.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if r.traced {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		r.note("trace", path)
	}
	r.print(os.Stdout)
	return 0
}

// nproc is the number of CPUs this process may run on.
func nproc() int {
	if out, err := exec.Command("nproc").Output(); err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(out))); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// run is one benchmark invocation: its settings and what it measured.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	tmp      string // removed at exit
	rng      *rand.Rand
	spans    *tracer // nil when untraced
	host     *hostRef

	attempted, failed int
	failures          []string
	metrics           []namedMetric
	notes             [][2]string
}

type namedMetric struct {
	Name  string
	Value float64
	Unit  string
}

// check counts one operation and whether its output was correct.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// metric records one metric. Values must be finite; a metric that would
// read NaN (an empty sample set) is a bug in the workload.
func (r *run) metric(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics = append(r.metrics, namedMetric{name, v, unit})
}

// note records one line of provenance or context, printed beside the
// metrics but not part of the JSON result.
func (r *run) note(key, value string) { r.notes = append(r.notes, [2]string{key, value}) }

// provenance records where the numbers were measured.
func (r *run) provenance() {
	r.note("go_version", runtime.Version())
	r.note("num_cpu", strconv.Itoa(runtime.NumCPU()))
	r.note("gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0)))
	r.note("git_revision", gitRevision())
	r.note("seed", strconv.FormatInt(r.seed, 10))
	r.note("window_s", strconv.FormatFloat(r.window.Seconds(), 'f', -1, 64))
}

// gitRevision names the source revision, or "unknown" outside a git
// checkout.
func gitRevision() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// print writes a human-readable table, then the JSON result as the last
// line.
func (r *run) print(f *os.File) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	failedFrac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "# perfbench %s (trace=%v)\n", r.workload, r.traced)
	for _, n := range r.notes {
		fmt.Fprintf(w, "#   %-22s %s\n", n[0], n[1])
	}
	fmt.Fprintf(w, "#   %-22s %d of %d (failed_frac %.4g ratio)\n", "failed", r.failed, r.attempted, failedFrac)
	for _, msg := range r.failures {
		fmt.Fprintf(w, "#   FAILED: %s\n", msg)
	}
	out := map[string]jsonMetric{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
		out[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	w.Write(b)
	w.WriteString("\n")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// window is what a timed window measured. Pass times and per-result
// samples are host-normalized (hostref.go); raw keeps the pass times as
// measured.
type window struct {
	raw     []time.Duration
	passes  []time.Duration
	samples []float64 // host ns per simulated instruction, one per result
	scales  []float64 // per pass: refNominal over the reference loop's mean time in it
}

// timed calls pass until the window has elapsed, at least once, and
// scales each pass's wall time and the samples it returned by the host
// scale measured during the pass.
func (r *run) timed(pass func(i int) (samples []float64, err error)) (window, error) {
	var w window
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < r.window; i++ {
		t0 := r.host.begin()
		samples, err := pass(i)
		if err != nil {
			return w, err
		}
		wall := time.Since(t0)
		k := r.host.scale(t0)
		w.raw = append(w.raw, wall)
		w.passes = append(w.passes, time.Duration(float64(wall)*k))
		w.scales = append(w.scales, k)
		for _, s := range samples {
			w.samples = append(w.samples, s*k)
		}
	}
	return w, nil
}

// A run sets up at least setupRuns times and for at least setupMin, and
// setup_s is the median: a short set-up repeats more, so its median
// rests on as much time as a long one's.
const (
	setupRuns = 3
	setupMin  = 3 * time.Second
)

// setupTimes runs setup repeatedly and returns the median
// host-normalized wall time in seconds; the caller's closure keeps the
// last set-up's state.
func (r *run) setupTimes(setup func() error) (float64, error) {
	var secs []float64
	start := time.Now()
	for i := 0; i < setupRuns || time.Since(start) < setupMin; i++ {
		runtime.GC()
		t0 := r.host.begin()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds()*r.host.scale(t0))
	}
	r.note("setups", strconv.Itoa(len(secs)))
	return quantile(secs, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). Empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// heapAllocBytes is the cumulative count of heap bytes allocated, read
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readGC reads the Go runtime's cumulative GC cycles and pause time.
func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{ms.NumGC, time.Duration(ms.PauseTotalNs)}
}

// peakRSSMB is the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}

// endToEnd records the metrics every workload reports with tracing off.
// Each workload fills the fields with its own definition (README.md).
type endToEnd struct {
	setupS        float64
	window        window
	insts         uint64 // committed simulated instructions delivered by the timed passes
	ipcRelCarf    float64
	allocBytes    uint64 // heap bytes allocated over the timed passes
	resultsServed int    // simulation results delivered by the timed passes
}

func (r *run) reportEndToEnd(e endToEnd) {
	w := e.window
	passS := seconds(w.passes)
	r.metric("sim_minst_s", "Minst/s", float64(e.insts)/sum(w.passes).Seconds()/1e6)
	r.metric("sim_ns_per_inst_p50", "ns", quantile(w.samples, 0.5))
	r.metric("sim_ns_per_inst_p90", "ns", quantile(w.samples, 0.9))
	r.metric("study_s", "s", quantile(passS, 0.5))
	r.metric("study_s_p90", "s", quantile(passS, 0.9))
	r.metric("ipc_rel_carf", "ratio", e.ipcRelCarf)
	r.metric("alloc_kb_per_sim", "KiB", float64(e.allocBytes)/float64(max(e.resultsServed, 1))/1024)
	r.metric("alloc_mb_per_pass", "MiB", float64(e.allocBytes)/float64(len(w.passes))/(1<<20))
	r.metric("peak_rss_mb", "MB", peakRSSMB())
	r.metric("setup_s", "s", e.setupS)
	r.note("passes", strconv.Itoa(len(w.passes)))
	r.note("ns_per_inst_samples", strconv.Itoa(len(w.samples)))
	r.note("p90_samples_above", strconv.Itoa(len(w.samples)/10))
	r.note("committed_insts", strconv.FormatUint(e.insts, 10))
	r.note("host_scale_p50", strconv.FormatFloat(quantile(w.scales, 0.5), 'f', 4, 64))
	r.note("raw_sim_minst_s", strconv.FormatFloat(float64(e.insts)/sum(w.raw).Seconds()/1e6, 'f', 4, 64))
	r.note("raw_study_s", strconv.FormatFloat(quantile(seconds(w.raw), 0.5), 'f', 4, 64))
}
