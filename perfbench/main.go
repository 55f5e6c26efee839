// Command perfbench is the repository benchmark. It runs one named
// workload (eval-quick, serve-steady or fleet-ckpt) through the
// program's public packages, checks every output, and prints the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1) as
// one JSON object on the last line of standard output.
//
// Usage:
//
//	bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//	bash perfbench/run.sh --selftest
//	bash perfbench/run.sh compare PARENT.log CHANGE.log
//
// Each measured iteration is a fresh child process of this binary: the
// compile caches in internal/preempt live for the life of a process,
// so only a new process pays the cold compile every real run pays, and
// only a new process gives each iteration its own peak resident set.
// See README.md for the workloads, metrics and the known defects they
// avoid.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minChildren is the fewest iterations a run takes, so each run
// reports a median rather than a single sample.
const minChildren = 2

// metricDef is one reported metric; the lists below must match
// BENCHMARK.json (the self-test checks it).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"verified_frac", "ratio"},
	{"ctx_reduction_pct", "%"},
}

var perLayer = []metricDef{
	{"harness.tablei_s", "s"},
	{"harness.fig7_s", "s"},
	{"harness.dynamic_s", "s"},
	{"harness.fig10_s", "s"},
	{"harness.ablation_s", "s"},
	{"harness.episodes", "count"},
	{"harness.episode_yield", "ratio"},
	{"harness.cpu_s", "s"},
	{"core.cpu_s", "s"},
	{"core.compile_s", "s"},
	{"core.compile_km_s", "s"},
	{"core.ctx_bytes", "B"},
	{"kernels.cpu_s", "s"},
	{"kernels.build_s", "s"},
	{"sim.cpu_s", "s"},
	{"sim.inst_per_s", "1/s"},
	{"sim.cycles_per_s", "1/s"},
	{"sim.shard2_speedup", "ratio"},
	{"sim.preempt_cycles_mean", "cycles"},
	{"sim.resume_cycles_mean", "cycles"},
	{"sched.cpu_s", "s"},
	{"sched.gentrace_s", "s"},
	{"sched.serve_s", "s"},
	{"sched.fleet_s", "s"},
	{"sched.admitted", "count"},
	{"sched.preemptions", "count"},
	{"sched.rearbitrations", "count"},
	{"sched.migrations", "count"},
	{"sched.readmits", "count"},
	{"snapshot.cpu_s", "s"},
	{"snapshot.checkpoints", "count"},
	{"snapshot.checkpoint_mb", "MiB"},
	{"snapshot.encode_mb_per_s", "MiB/s"},
	{"snapshot.decode_mb_per_s", "MiB/s"},
	{"snapshot.restore_warm", "count"},
	{"preempt.cpu_s", "s"},
	{"isa.cpu_s", "s"},
	{"other.cpu_s", "s"},
	{"profile.samples", "count"},
	{"profile.attributed_frac", "ratio"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cpu_s", "s"},
	{"go.gc_cycles", "count"},
	{"go.gc_bg_cpu_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"outcome.preempt_reduction_pct", "%"},
	{"outcome.resume_reduction_pct", "%"},
	{"outcome.runtime_overhead_pct", "%"},
	{"outcome.p50_turnaround_kcycles", "kcycles"},
	{"outcome.p99_turnaround_kcycles", "kcycles"},
	{"outcome.shed_permille", "permille"},
	{"outcome.makespan_kcycles", "kcycles"},
	{"outcome.restore_kcycles", "kcycles"},
}

// childResult is what one iteration reports to the parent, as the last
// line of the child's standard output.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Exact     map[string]float64 `json:"exact"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	RSSMiB    float64            `json:"-"` // from the parent's rusage
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo precedes the result line: the machine, the raw per-iteration
// samples and the exact simulated outcomes, which the comparer reads.
type runInfo struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Trace      int                  `json:"trace"`
	Nproc      int                  `json:"nproc"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go"`
	StartedMs  int64                `json:"started_unix_ms"`
	Samples    map[string][]float64 `json:"samples"`
	Exact      map[string]float64   `json:"exact"`
	Errors     []string             `json:"errors,omitempty"`
	Spans      []span               `json:"spans,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		wname    = flag.String("workload", "", "workload: eval-quick, serve-steady or fleet-ckpt")
		seed     = flag.Int64("seed", -1, "trace seed (negative = the workload's default)")
		seconds  = flag.Int("seconds", 36, "length of an untraced run: max(2, seconds / the workload's nominal iteration time) iterations")
		traceF   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		workers  = flag.Int("workers", 0, "harness/serve worker threads (0 = min(2, nproc))")
		child    = flag.String("child", "", "internal: run one iteration (plain or traced) and report it")
		selftest = flag.Bool("selftest", false, "check exact outcomes are identical at 1 and 2 workers, and BENCHMARK.json matches")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *workers < 0 || *seconds < 1 || (*traceF != 0 && *traceF != 1) {
		fail(errors.New("-workers must be >= 0, -seconds >= 1 and -trace 0 or 1"))
	}
	if *workers == 0 {
		*workers = min(2, runtime.NumCPU())
	}
	if *selftest {
		if err := selfTest(); err != nil {
			fail(err)
		}
		return
	}
	w, err := lookup(*wname)
	if err != nil {
		fail(err)
	}
	if *seed < 0 {
		*seed = w.defaultSeed
	}
	if *child != "" {
		if *child != "plain" && *child != "traced" {
			fail(fmt.Errorf("unknown -child mode %q", *child))
		}
		res := runChild(w, *seed, *workers, *child == "traced")
		line, err := json.Marshal(res)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
		return
	}
	info, res := measure(w, *seed, *seconds, *workers, *traceF == 1)
	for _, l := range []any{map[string]any{"perfbench": info}, res} {
		b, err := json.Marshal(l)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(b))
	}
}

// spawn runs one iteration in a child process and waits for it. An
// iteration that cannot run or report attempts nothing the parent can
// count; measure charges it with a whole iteration's operations.
func spawn(w *workload, seed int64, workers int, mode string) *childResult {
	fail := func(err error) *childResult {
		return &childResult{Errors: []string{fmt.Sprintf("%s iteration of %s: %v", mode, w.name, err)}}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-workers", strconv.Itoa(workers))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fail(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return fail(fmt.Errorf("bad report: %w", err))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.RSSMiB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return &res
}

// measure runs one benchmark run: enough untraced iterations to fill
// the time budget, or one untraced and one traced iteration for the
// per-layer metrics. It stops at the first iteration that fails, and
// charges that iteration and every one it leaves unrun with a whole
// iteration's operations, all failed.
func measure(w *workload, seed int64, seconds, workers int, traced bool) (*runInfo, *result) {
	info := &runInfo{Workload: w.name, Seed: seed, Nproc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		StartedMs: time.Now().UnixMilli(), Samples: map[string][]float64{}}
	modes := []string{"plain", "traced"}
	if traced {
		info.Trace = 1
	} else {
		// The iteration count follows from -seconds and the workload's
		// nominal iteration time, not from measured times, so that a
		// faster program runs the same number of iterations.
		modes = nil
		for range max(minChildren, seconds/w.nominalSeconds) {
			modes = append(modes, "plain")
		}
	}
	var kids []*childResult
	for _, mode := range modes {
		k := spawn(w, seed, workers, mode)
		kids = append(kids, k)
		if len(k.Errors) > 0 {
			break
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	ops := w.ops
	for _, k := range kids {
		if len(k.Errors) == 0 {
			ops = max(ops, k.Attempted)
		}
	}
	for i, k := range kids {
		attempted, failed := k.Attempted, k.Failed
		info.Errors = append(info.Errors, k.Errors...)
		switch {
		case len(k.Errors) > 0:
			attempted, failed = max(attempted, ops), max(attempted, ops)
		case info.Exact == nil:
			info.Exact = k.Exact
		case !reflect.DeepEqual(k.Exact, info.Exact):
			failed = attempted
			info.Errors = append(info.Errors, fmt.Sprintf("iteration %d: exact outcomes differ from the first good iteration: %v vs %v", i, k.Exact, info.Exact))
		}
		res.Attempted += attempted
		res.Failed += failed
		if failed > 0 {
			continue // a failed iteration's times measure nothing
		}
		info.Samples["setup_s"] = append(info.Samples["setup_s"], k.SetupS)
		info.Samples["wall_s"] = append(info.Samples["wall_s"], k.WallS)
		info.Samples["peak_rss_mb"] = append(info.Samples["peak_rss_mb"], k.RSSMiB)
	}
	unrun := int64(len(modes) - len(kids))
	res.Attempted += unrun * ops
	res.Failed += unrun * ops
	res.Correct = len(info.Errors) == 0 && res.Failed == 0

	if traced {
		layers := map[string]float64{}
		if len(kids) == 2 && kids[1].Layers != nil {
			plain, tr := kids[0], kids[1]
			info.Spans = tr.Spans
			layers = tr.Layers
			layers["trace.overhead_frac"] = tr.WallS/plain.WallS - 1
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: layers[m.name], Unit: m.unit}
		}
		return info, res
	}
	vals := map[string]float64{
		"setup_s":           median(info.Samples["setup_s"]),
		"wall_s":            median(info.Samples["wall_s"]),
		"peak_rss_mb":       maxOf(info.Samples["peak_rss_mb"]),
		"verified_frac":     float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"ctx_reduction_pct": info.Exact["ctx_reduction_pct"],
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return info, res
}

// maxOf is the largest value. Peak RSS is reported as the highest
// iteration's peak: when the Go collector runs relative to the largest
// allocations varies from process to process, so a single input has
// two or more distinct peaks, and the maximum over several iterations
// picks the highest of them far more steadily than a median does.
func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// selfTest checks that BENCHMARK.json lists exactly the metrics this
// program prints, then runs each workload once at 1 and once at 2
// workers and requires every exact outcome to be identical.
func selfTest() error {
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	fmt.Println("BENCHMARK.json matches the metric lists")
	for _, w := range workloads {
		var got [2]*childResult
		for i, n := range []int{1, 2} {
			k := spawn(w, w.defaultSeed, n, "plain")
			if len(k.Errors) > 0 || k.Failed > 0 {
				return fmt.Errorf("%s at %d workers: %d failed: %v", w.name, n, k.Failed, k.Errors)
			}
			got[i] = k
		}
		if !reflect.DeepEqual(got[0].Exact, got[1].Exact) {
			return fmt.Errorf("%s: exact outcomes differ between 1 and 2 workers:\n  1: %v\n  2: %v", w.name, got[0].Exact, got[1].Exact)
		}
		fmt.Printf("%s: %d exact outcomes identical at 1 and 2 workers (wall %.2fs / %.2fs)\n",
			w.name, len(got[0].Exact), got[0].WallS, got[1].WallS)
	}
	return nil
}

// checkBenchmarkJSON compares the metric names and units in the
// benchmark description with the lists above.
func checkBenchmarkJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d %s metrics, program prints %d", path, len(got), what, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return fmt.Errorf("%s: %s metric %d is %s [%s], program prints %s [%s]",
					path, what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := same("per_layer", spec.PerLayer, perLayer); err != nil {
		return err
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s: %d workloads, program has %d", path, len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			return fmt.Errorf("%s: workload %d is %s, program has %s", path, i, spec.Workloads[i].Name, w.name)
		}
	}
	return nil
}
