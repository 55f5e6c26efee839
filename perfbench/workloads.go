package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ctxback/internal/harness"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sched"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// workload is one named benchmark input. setup does the one-time work
// (timed as setup_s) and returns the timed phase.
type workload struct {
	name string
	// defaultSeed is used when no seed is given.
	defaultSeed int64
	// nominalSeconds is about one iteration's length (set-up plus timed
	// phase) on a 2-core machine; it sets how many iterations a run of
	// a given length takes.
	nominalSeconds int
	// ops is how many operations an iteration attempts: episodes for
	// eval, jobs for serve and fleet. An iteration that fails before it
	// can count its own is charged this many, or as many as a good
	// iteration of the same run counted, if that is more.
	ops   int64
	setup func(e *env) (*prepared, error)
}

// eval-quick has no random input, so it ignores the seed.
var workloads = []*workload{
	{name: "eval-quick", nominalSeconds: 9, ops: 168, setup: setupEval},
	{name: "serve-steady", defaultSeed: 42, nominalSeconds: 9, ops: serveJobs, setup: setupServe},
	{name: "fleet-ckpt", defaultSeed: 9, nominalSeconds: 14, ops: 3 * int64(len(fleetKernels)), setup: setupFleet},
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// env is what one iteration's set-up and timed phase share.
type env struct {
	seed    int64
	workers int
	// reg receives the program's own counters (Options.Metrics,
	// Config.Metrics) in every iteration: operation counts come from it.
	reg   *trace.Registry
	spans []span
	start time.Time
}

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// do runs fn as a span named name, caused by the span named parent
// ("setup" or "timed", the two phases of an iteration).
func (e *env) do(parent, name string, fn func() error) error {
	s := span{Name: name, Parent: parent, Start: time.Since(e.start).Seconds()}
	err := fn()
	s.End = time.Since(e.start).Seconds()
	e.spans = append(e.spans, s)
	return err
}

// spanSeconds sums the durations of the spans named name.
func (e *env) spanSeconds(name string) float64 {
	var t float64
	for _, s := range e.spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}

// prepared is a set-up workload: its timed phase, the checks of its
// outputs, and what the probes need to exercise single layers on the
// same kernels and device.
type prepared struct {
	kernels []string
	params  kernels.Params
	dev     sim.Config
	// run is the timed phase. check is not timed: it is given run's
	// error, verifies the outputs and computes the exact outcomes.
	run   func() error
	check func(runErr error) (*outcome, error)
}

// outcome is the checked result of one timed phase. exact holds
// simulated values, which must be identical in every iteration.
type outcome struct {
	attempted, failed int64
	exact             map[string]float64
}

// setupEval: the paper evaluation at harness.QuickOptions with Verify
// on. Set-up is the Runner's workload preparation, which TableI forces:
// it builds the twelve Table-I workloads, sizes their grids and
// simulates their golden runs, which the later figures reuse, and then
// measures Table I's BASELINE switch times. The timed phase is the rest
// of the sweep.
func setupEval(e *env) (*prepared, error) {
	o := harness.QuickOptions()
	o.Verify = true
	o.Parallelism = e.workers
	o.Metrics = e.reg
	r := harness.NewRunner(o)
	var names []string
	if err := e.do("setup", "harness.tablei", func() error {
		rows, err := r.TableI()
		for _, row := range rows {
			names = append(names, row.Abbrev)
		}
		return err
	}); err != nil {
		return nil, err
	}
	p := &prepared{kernels: names, params: o.Params, dev: o.Cfg}
	var f7, f8, f9, f10 *harness.Figure
	p.run = func() error {
		steps := []struct {
			name string
			fn   func() error
		}{
			{"harness.fig7", func() (err error) { f7, err = r.Fig7(); return err }},
			{"harness.dynamic", func() (err error) { f8, f9, err = r.MeasureDynamic(); return err }},
			{"harness.fig10", func() (err error) { f10, err = r.Fig10(); return err }},
			{"harness.ablation", func() error { _, err := r.Ablation(); return err }},
		}
		for _, s := range steps {
			if err := e.do("timed", s.name, s.fn); err != nil {
				return err
			}
		}
		return nil
	}
	p.check = func(runErr error) (*outcome, error) {
		measured := e.reg.Counter("episodes.measured").Value()
		drained := e.reg.Counter("episodes.drained").Value()
		out := &outcome{attempted: max(measured+drained, 1)}
		if runErr != nil {
			out.failed = out.attempted
			return out, runErr
		}
		s := harness.Summarize(f7, f8, f9, f10)
		red, ctxBytes, err := staticContext(names, o.Params)
		if err != nil {
			out.failed = out.attempted
			return out, err
		}
		// The benchmark's static computation and Fig 7 must agree: both
		// average CTXBack's per-PC context over the same twelve kernels.
		if math.Abs(red-s.ContextReductionCTXBack) > 1e-9 {
			out.failed = out.attempted
			return out, fmt.Errorf("static context reduction %.9f disagrees with Fig 7's %.9f", red, s.ContextReductionCTXBack)
		}
		out.exact = map[string]float64{
			"ctx_reduction_pct":             100 * s.ContextReductionCTXBack,
			"outcome.preempt_reduction_pct": 100 * s.PreemptReductionCTXBack,
			"outcome.resume_reduction_pct":  100 * s.ResumeReductionCTXBack,
			"outcome.runtime_overhead_pct":  100 * s.OverheadCTXBack,
			"core.ctx_bytes":                ctxBytes,
			"harness.episodes":              float64(measured + drained),
			"sim.preempt_cycles_mean":       histMean(e.reg, "episode.preempt_cycles"),
			"sim.resume_cycles_mean":        histMean(e.reg, "episode.resume_cycles"),
		}
		if measured+drained > 0 {
			out.exact["harness.episode_yield"] = float64(measured) / float64(measured+drained)
		}
		return out, nil
	}
	return p, nil
}

// quickSched is the quick device the scheduler smoke tests use:
// sim.TestConfig with 64 MiB of device memory.
func quickSched(sms, iters int, reg *trace.Registry) sched.Config {
	sc := sched.DefaultSchedConfig()
	sc.Dev = sim.TestConfig()
	sc.Dev.GlobalMemBytes = 64 << 20
	sc.Dev.NumSMs = sms
	sc.MaxCycles = 200_000_000
	sc.Params.ItersPerWarp = iters
	sc.Verify = true
	sc.Metrics = reg
	return sc
}

// genTrace generates the arrival trace from the seed and compiles
// CTXBack for every kernel in the pool it draws from, so the timed
// phase starts with the compile paid, as in a long-running server. It
// returns the trace and the pool.
func genTrace(e *env, tc sched.TraceConfig, sc sched.Config) ([]sched.Job, []string, error) {
	var jobs []sched.Job
	if err := e.do("setup", "sched.gentrace", func() (err error) {
		jobs, err = sched.GenTrace(tc)
		return err
	}); err != nil {
		return nil, nil, err
	}
	pool := tc.Kernels
	if len(pool) == 0 {
		var err error
		if pool, err = sched.DefaultKernelPool(); err != nil {
			return nil, nil, err
		}
	}
	err := e.do("setup", "core.precompile", func() error {
		for _, k := range pool {
			wl, err := kernels.ByAbbrev(k, sc.Params)
			if err != nil {
				return err
			}
			if _, err := preempt.New(preempt.CTXBack, wl.Prog); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
		}
		return nil
	})
	return jobs, pool, err
}

// setupServe: 2000 open-loop Poisson arrivals with bursty and diurnal
// modulation over 4 tenants, near the capacity of 2 quick devices. A
// fixed arrival count rather than a fixed horizon keeps the work of a
// run nearly the same for every seed. Migration stays off: with it on,
// the hypervisor can migrate without end (defect D1 in README.md).
func setupServe(e *env) (*prepared, error) {
	sc := quickSched(2, 2, e.reg)
	tc := sched.TraceConfig{
		Seed: e.seed, NumJobs: serveJobs, NumTenants: 4, MeanGapCycles: 4000, Process: "poisson",
		BurstFraction: 0.25, DiurnalAmplitude: 0.3,
	}
	jobs, names, err := genTrace(e, tc, sc)
	if err != nil {
		return nil, err
	}
	svc := sched.ServeConfig{
		Sched: sc, Devices: 2, Workers: e.workers, WarmPool: 1,
		Admit:        sched.AdmitConfig{TokensPer100k: 150, MaxQueue: 12},
		Hypervisor:   sched.HypervisorConfig{Every: 20_000, MigrateThreshold: -1},
		DecisionSink: trace.NewLineSink(io.Discard),
	}
	p := &prepared{kernels: names, params: sc.Params, dev: sc.Dev}
	var res *sched.ServeResult
	p.run = func() error {
		return e.do("timed", "sched.serve", func() (err error) {
			res, err = sched.Serve(svc, preempt.CTXBack, jobs)
			return err
		})
	}
	p.check = func(runErr error) (*outcome, error) {
		out := &outcome{attempted: int64(len(jobs))}
		if runErr != nil {
			out.failed = out.attempted
			return out, runErr
		}
		// Accounting identities: every arrival is admitted or shed, and
		// every admitted job completes (and passed golden verification).
		if res.Arrived != len(jobs) || res.Admitted+res.Shed != res.Arrived || res.Completed != res.Admitted {
			out.failed = out.attempted
			return out, fmt.Errorf("serve accounting: %d jobs, arrived %d, admitted %d, shed %d, completed %d",
				len(jobs), res.Arrived, res.Admitted, res.Shed, res.Completed)
		}
		// p99 is reported only with at least ten samples beyond it.
		if res.Completed < 1000 {
			out.failed = out.attempted
			return out, fmt.Errorf("serve: %d completions leave fewer than 10 samples beyond p99", res.Completed)
		}
		red, ctxBytes, err := staticContext(names, sc.Params)
		if err != nil {
			out.failed = out.attempted
			return out, err
		}
		out.exact = map[string]float64{
			"ctx_reduction_pct":              100 * red,
			"core.ctx_bytes":                 ctxBytes,
			"outcome.p50_turnaround_kcycles": float64(res.P50) / 1000,
			"outcome.p99_turnaround_kcycles": float64(res.P99) / 1000,
			"outcome.shed_permille":          1000 * float64(res.Shed) / float64(res.Arrived),
			"outcome.makespan_kcycles":       float64(res.Makespan) / 1000,
			"sched.admitted":                 float64(res.Admitted),
			"sched.preemptions":              float64(res.TotalPreemptions),
			"sched.rearbitrations":           float64(res.Rearbitrations),
			"sched.migrations":               float64(res.Migrations),
		}
		return out, nil
	}
	return p, nil
}

// serveJobs is serve-steady's arrival count, about 5M simulated cycles
// of traffic.
const serveJobs = 2000

// fleetKernels is the default kernel pool without MS and MV: at 24
// iterations per warp their buffers span 6.0 and 3.1 MiB, more than the
// default slab of a fleet trace on 64 MiB, and the scheduler does not
// check (defect D2 in README.md). The largest left is KM at 1.64 MiB;
// 27 jobs give each a 2.37 MiB slab.
var fleetKernels = []string{"AP", "DC", "DOT", "GE", "KM", "LRN", "MM", "RELU", "VA"}

// setupFleet: a 27-job closed trace on 2 quick single-SM devices with a
// whole-device checkpoint every 20k cycles and device 0 killed at 200k,
// restored from the warm pool. The trace holds each kernel of
// fleetKernels three times, in an order drawn from the seed, so that the
// work of a run does not depend on the seed; arrivals, tenants and
// priorities come from sched.GenTrace.
func setupFleet(e *env) (*prepared, error) {
	sc := quickSched(1, 24, e.reg)
	tc := sched.TraceConfig{Seed: e.seed, NumJobs: 3 * len(fleetKernels), NumTenants: 3, MeanGapCycles: 3000,
		Kernels: fleetKernels}
	jobs, names, err := genTrace(e, tc, sc)
	if err != nil {
		return nil, err
	}
	for i, k := range rand.New(rand.NewSource(e.seed)).Perm(len(jobs)) {
		jobs[i].Kernel = fleetKernels[k%len(fleetKernels)]
	}
	fo := sched.FailoverConfig{
		Devices: 2, CheckpointEvery: 20_000, KillDevice: 0, KillCycle: 200_000, WarmPool: 1,
		DecisionSink: trace.NewLineSink(io.Discard),
	}
	p := &prepared{kernels: names, params: sc.Params, dev: sc.Dev}
	var fr *sched.FleetResult
	p.run = func() error {
		return e.do("timed", "sched.fleet", func() (err error) {
			fr, err = sched.RunFleet(sc, preempt.CTXBack, jobs, fo)
			return err
		})
	}
	p.check = func(runErr error) (*outcome, error) {
		out := &outcome{attempted: int64(len(jobs))}
		if runErr != nil {
			out.failed = out.attempted
			return out, runErr
		}
		if len(fr.Jobs) != len(jobs) || fr.Restore == nil {
			out.failed = out.attempted
			return out, fmt.Errorf("fleet: %d of %d jobs completed, restore ran: %v", len(fr.Jobs), len(jobs), fr.Restore != nil)
		}
		turns := make([]int64, len(fr.Jobs))
		for i, j := range fr.Jobs {
			turns[i] = j.TurnaroundCycles()
		}
		sort.Slice(turns, func(i, j int) bool { return turns[i] < turns[j] })
		red, ctxBytes, err := staticContext(names, sc.Params)
		if err != nil {
			out.failed = out.attempted
			return out, err
		}
		out.exact = map[string]float64{
			"ctx_reduction_pct":              100 * red,
			"core.ctx_bytes":                 ctxBytes,
			"outcome.p50_turnaround_kcycles": float64(turns[trace.NearestRank(int64(len(turns)), 0.5)-1]) / 1000,
			"outcome.makespan_kcycles":       float64(fr.Makespan) / 1000,
			"outcome.restore_kcycles":        float64(fr.Restore.RestoreCycles()) / 1000,
			"sched.admitted":                 float64(len(jobs)),
			"sched.preemptions":              float64(fr.TotalPreemptions),
			"sched.readmits":                 float64(e.reg.Counter("snap.readmits").Value()),
			"snapshot.checkpoints":           float64(fr.Checkpoints),
			"snapshot.checkpoint_mb":         float64(e.reg.Counter("snap.checkpoint_bytes").Value()) / (1 << 20),
			"snapshot.restore_warm":          float64(e.reg.Counter("snap.restore_warm").Value()),
		}
		return out, nil
	}
	return p, nil
}

// staticContext is Fig 7's CTXBack series over the given kernels: each
// kernel's CTXBack context averaged over its PCs (plus the per-warp LDS
// share every technique swaps), normalized to BASELINE, geometric mean
// across kernels. It returns the reduction (1 - mean ratio) and the sum
// of the kernels' mean CTXBack context bytes.
func staticContext(names []string, p kernels.Params) (reduction, ctxBytes float64, err error) {
	var ratios []float64
	for _, name := range names {
		wl, err := kernels.ByAbbrev(name, p)
		if err != nil {
			return 0, 0, err
		}
		lds := 0
		if wl.Prog.LDSBytes > 0 {
			lds = wl.Prog.LDSBytes / p.WarpsPerBlock
		}
		var mean [2]float64
		for i, k := range []preempt.Kind{preempt.CTXBack, preempt.Baseline} {
			t, err := preempt.New(k, wl.Prog)
			if err != nil {
				return 0, 0, fmt.Errorf("%s/%v: %w", name, k, err)
			}
			var sum float64
			for pc := 0; pc < wl.Prog.Len(); pc++ {
				sum += float64(t.StaticContextBytes(pc) + lds)
			}
			mean[i] = sum / float64(wl.Prog.Len())
		}
		ratios = append(ratios, mean[0]/mean[1])
		ctxBytes += mean[0]
	}
	var logSum float64
	for _, r := range ratios {
		if r <= 0 {
			return 0, 0, fmt.Errorf("non-positive context ratio %v", r)
		}
		logSum += math.Log(r)
	}
	return 1 - math.Exp(logSum/float64(len(ratios))), ctxBytes, nil
}

// histMean is the mean of a registry histogram, 0 when it is empty.
func histMean(reg *trace.Registry, name string) float64 {
	h := reg.Histogram(name, nil)
	if h.Count() == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(h.Count())
}
