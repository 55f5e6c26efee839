package sched

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

func TestDefaultKernelPool(t *testing.T) {
	pool, err := DefaultKernelPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) == 0 {
		t.Fatal("default kernel pool is empty")
	}
	if len(pool) >= len(kernels.Registry()) {
		t.Logf("pool = %v (every kernel SM-flush compatible?)", pool)
	}
	// Every pool kernel must compile under every extended technique — the
	// whole point of the filter.
	for _, ab := range pool {
		wl, err := kernels.ByAbbrev(ab, kernels.TestParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range preempt.ExtendedKinds() {
			if _, err := preempt.New(k, wl.Prog); err != nil {
				t.Errorf("pool kernel %s fails under %v: %v", ab, k, err)
			}
		}
	}
	again, err := DefaultKernelPool()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pool, again) {
		t.Error("pool not stable across calls")
	}
}

func TestGenTraceDeterministic(t *testing.T) {
	tc := TraceConfig{Seed: 11, NumJobs: 12, NumTenants: 4}
	a, err := GenTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenTrace(tc)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, _ := GenTrace(TraceConfig{Seed: 12, NumJobs: 12, NumTenants: 4})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	for i, j := range a {
		if j.ID != i || j.Tenant < 0 || j.Tenant >= 4 || j.Priority < 0 {
			t.Fatalf("bad job %+v", j)
		}
		if i > 0 && j.Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not monotonic: %d after %d", j.Arrival, a[i-1].Arrival)
		}
	}
}

// testSchedConfig is a small, fast configuration on the unit-test device
// model.
func testSchedConfig() Config {
	p := kernels.TestParams()
	p.ItersPerWarp = 24 // long enough that preemptions land mid-kernel
	dev := sim.TestConfig()
	// Filled-SM grids write megabytes of buffers per job; the unit-test
	// device's 1 MB memory cannot slab several tenants.
	dev.GlobalMemBytes = 64 << 20
	return Config{
		Dev:       dev,
		Params:    p,
		MaxCycles: 200_000_000,
		Verify:    true,
	}
}

func testTrace(t *testing.T, seed int64, jobs int) []Job {
	t.Helper()
	tr, err := GenTrace(TraceConfig{Seed: seed, NumJobs: jobs, NumTenants: 3, MeanGapCycles: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestScheduleRunsAndVerifies(t *testing.T) {
	jobs := testTrace(t, 7, 6)
	m := trace.NewRegistry()
	cfg := testSchedConfig()
	cfg.Metrics = m
	res, err := Run(cfg, preempt.CTXBack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("got %d job stats, want %d", len(res.Jobs), len(jobs))
	}
	for _, j := range res.Jobs {
		if j.Start < j.Arrival {
			t.Errorf("job %d started at %d before arrival %d", j.ID, j.Start, j.Arrival)
		}
		if j.Complete <= j.Start {
			t.Errorf("job %d complete %d <= start %d", j.ID, j.Complete, j.Start)
		}
	}
	if res.Makespan == 0 {
		t.Error("zero makespan")
	}
	if got := m.Counter("sched.jobs").Value(); got != int64(len(jobs)) {
		t.Errorf("sched.jobs counter = %d, want %d", got, len(jobs))
	}
	if m.Histogram("sched.turnaround_cycles", nil).Count() != int64(len(jobs)) {
		t.Error("turnaround histogram not populated")
	}
	rendered := m.Render()
	if !strings.Contains(rendered, "sched.tenant") {
		t.Errorf("metrics missing per-tenant series:\n%s", rendered)
	}
}

// TestScheduleDeterministicRepeats pins the core promise: the same trace
// under the same technique yields bit-identical stats AND an identical
// decision log, run after run.
func TestScheduleDeterministicRepeats(t *testing.T) {
	jobs := testTrace(t, 21, 6)
	run := func() *Result {
		res, err := Run(testSchedConfig(), preempt.CTXBack, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.EventLog() != b.EventLog() {
		t.Fatalf("event logs differ between identical runs:\n--- a\n%s--- b\n%s", a.EventLog(), b.EventLog())
	}
	if !reflect.DeepEqual(a.Jobs, b.Jobs) || !reflect.DeepEqual(a.Tenants, b.Tenants) {
		t.Fatal("stats differ between identical runs")
	}
	if a.Render() != b.Render() {
		t.Fatal("rendered reports differ between identical runs")
	}
}

// TestPriorityPreemption crafts a two-job trace on a one-SM device: a
// low-priority job is running when a high-priority job arrives, so the
// scheduler must preempt it, run the newcomer, then resume the victim.
func TestPriorityPreemption(t *testing.T) {
	cfg := testSchedConfig()
	cfg.Dev.NumSMs = 1
	pool, err := DefaultKernelPool()
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{ID: 0, Tenant: 0, Kernel: pool[0], Arrival: 0, Priority: 0},
		{ID: 1, Tenant: 1, Kernel: pool[1%len(pool)], Arrival: 2_000, Priority: 5},
	}
	res, err := Run(cfg, preempt.CTXBack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Preemptions != 1 {
		t.Fatalf("low-priority job preempted %d times, want 1\n%s", res.Jobs[0].Preemptions, res.EventLog())
	}
	if res.Jobs[1].Preemptions != 0 {
		t.Fatalf("high-priority job preempted %d times, want 0", res.Jobs[1].Preemptions)
	}
	// The victim resumed and finished after the high-priority job.
	if res.Jobs[0].Complete <= res.Jobs[1].Complete {
		t.Errorf("victim (complete %d) should finish after its preemptor (complete %d)",
			res.Jobs[0].Complete, res.Jobs[1].Complete)
	}
	log := res.EventLog()
	for _, want := range []string{"preempt", "park", "resume", "complete"} {
		if !strings.Contains(log, want) {
			t.Errorf("event log missing %q:\n%s", want, log)
		}
	}
}

// TestCTXBackBeatsHeavyweightP95 is the paper's claim at scheduler
// level: on a contended trace, CTXBack's cheap context switches show up
// as lower p95 turnaround than the liveness-blind BASELINE swap and
// than SM-flushing's full re-execution.
func TestCTXBackBeatsHeavyweightP95(t *testing.T) {
	cfg := testSchedConfig()
	cfg.Dev.NumSMs = 1 // maximum contention: every arrival fights for one SM
	jobs := testTrace(t, 9, 8)
	p95 := map[preempt.Kind]int64{}
	for _, k := range []preempt.Kind{preempt.Baseline, preempt.SMFlush, preempt.CTXBack} {
		res, err := Run(cfg, k, jobs)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.TotalPreemptions == 0 {
			t.Fatalf("%v: trace not contended (no preemptions); pick a different seed", k)
		}
		p95[k] = res.P95
	}
	if p95[preempt.CTXBack] >= p95[preempt.Baseline] {
		t.Errorf("CTXBack p95 %d not below BASELINE p95 %d", p95[preempt.CTXBack], p95[preempt.Baseline])
	}
	if p95[preempt.CTXBack] >= p95[preempt.SMFlush] {
		t.Errorf("CTXBack p95 %d not below SM-flushing p95 %d", p95[preempt.CTXBack], p95[preempt.SMFlush])
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40}
	cases := []struct {
		q    float64
		want int64
	}{{0.5, 20}, {0.75, 30}, {0.95, 40}, {0.99, 40}, {1, 40}, {0.01, 10}}
	for _, c := range cases {
		if got := trace.Percentile(s, c.q); got != c.want {
			t.Errorf("trace.Percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if trace.Percentile([]int64(nil), 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
	// benchtab -qos's 9 arrival points: p95 is the 9th sample, the same
	// rank harness's QoS percentile is pinned to.
	if got := trace.Percentile([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.95); got != 9 {
		t.Errorf("p95 of 9 samples = %d, want 9", got)
	}
}

// TestPercentileExactRank pins percentile against the exact nearest
// rank at the (q, n) shapes SLO tables report: over 1..100, p99 is the
// 99th value and p7 the 7th — the old float ceiling inflated both.
func TestPercentileExactRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	cases := []struct {
		q    float64
		want int64
	}{{0.07, 7}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}}
	for _, c := range cases {
		if got := trace.Percentile(s, c.q); got != c.want {
			t.Errorf("trace.Percentile(%v) over 1..100 = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestGenTraceValidation checks the config validation added with the
// process knobs: oversized gaps must error instead of panicking inside
// rand.Int63n, and malformed knobs are rejected.
func TestGenTraceValidation(t *testing.T) {
	bad := []TraceConfig{
		{Seed: 1, NumJobs: 4, MeanGapCycles: math.MaxInt64/2 + 7},
		{Seed: 1, NumJobs: 4, Process: "pareto"},
		{Seed: 1, NumJobs: 4, DiurnalAmplitude: 1.5},
		{Seed: 1, NumJobs: 4, DiurnalAmplitude: -0.1},
		{Seed: 1, NumJobs: 4, BurstFraction: 1.2},
		{Seed: 1, NumJobs: -2},
	}
	for i, tc := range bad {
		if _, err := GenTrace(tc); err == nil {
			t.Errorf("config %d: expected error, got none", i)
		}
	}
	// The largest legal gap must draw without panicking.
	if _, err := GenTrace(TraceConfig{Seed: 1, NumJobs: 2, MeanGapCycles: math.MaxInt64/2 - 1}); err != nil {
		t.Errorf("max legal MeanGapCycles rejected: %v", err)
	}
}

// TestGenTraceUniformCompat checks that the zero-valued knobs leave the
// historical uniform draw sequence untouched: "" and "uniform" produce
// identical traces.
func TestGenTraceUniformCompat(t *testing.T) {
	base := TraceConfig{Seed: 11, NumJobs: 12, NumTenants: 4}
	a, err := GenTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Process = "uniform"
	b, err := GenTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("explicit uniform process changed the trace")
	}
}

// TestGenTracePoissonOpenLoop generates an open-loop poisson trace
// bounded by a horizon and checks shape: monotone arrivals inside the
// horizon, roughly duration/gap jobs, deterministic across calls.
func TestGenTracePoissonOpenLoop(t *testing.T) {
	tc := TraceConfig{Seed: 5, NumTenants: 4, MeanGapCycles: 1000,
		Process: "poisson", DurationCycles: 1_000_000}
	a, err := GenTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenTrace(tc)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("poisson trace not deterministic")
	}
	if len(a) < 500 || len(a) > 2000 {
		t.Fatalf("open-loop trace has %d jobs; want about duration/gap = 1000", len(a))
	}
	for i, j := range a {
		if j.Arrival > tc.DurationCycles {
			t.Fatalf("job %d arrives at %d, past the %d horizon", i, j.Arrival, tc.DurationCycles)
		}
		if i > 0 && j.Arrival < a[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
	}
}

// TestGenTraceBursts marks half the tenants bursty and checks the
// bursty tenants' arrivals cluster much tighter than the smooth ones.
func TestGenTraceBursts(t *testing.T) {
	tc := TraceConfig{Seed: 9, NumJobs: 400, NumTenants: 4, MeanGapCycles: 10_000,
		Process: "poisson", BurstFraction: 0.5, BurstLen: 6}
	jobs, err := GenTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	// Tenants 0,1 are bursty. Median gap between a bursty tenant's
	// consecutive jobs should be far below the smooth tenants'.
	gaps := func(tenant ...int) []int64 {
		want := map[int]bool{}
		for _, tn := range tenant {
			want[tn] = true
		}
		var last int64 = -1
		var out []int64
		for _, j := range jobs {
			if !want[j.Tenant] {
				continue
			}
			if last >= 0 {
				out = append(out, j.Arrival-last)
			}
			last = j.Arrival
		}
		sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
		return out
	}
	bg, sg := gaps(0, 1), gaps(2, 3)
	if len(bg) < 20 || len(sg) < 20 {
		t.Fatalf("too few gaps to compare: bursty=%d smooth=%d", len(bg), len(sg))
	}
	bmed, smed := bg[len(bg)/2], sg[len(sg)/2]
	if bmed*4 > smed {
		t.Errorf("bursty median gap %d not well below smooth median %d", bmed, smed)
	}
}

// TestGenTraceDiurnal modulates the rate with a full-period sinusoid
// and checks the peak half-period holds measurably more arrivals.
func TestGenTraceDiurnal(t *testing.T) {
	tc := TraceConfig{Seed: 3, NumTenants: 2, MeanGapCycles: 1000,
		Process: "poisson", DurationCycles: 2_000_000,
		DiurnalAmplitude: 0.8, DiurnalPeriod: 2_000_000}
	jobs, err := GenTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	var peak, trough int
	for _, j := range jobs {
		if j.Arrival < tc.DurationCycles/2 {
			peak++
		} else {
			trough++
		}
	}
	if peak < trough*2 {
		t.Errorf("diurnal peak half has %d arrivals vs trough %d; want a clear skew", peak, trough)
	}
}
