package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ctxback/internal/preempt"
	"ctxback/internal/trace"
)

// Serve mode grows the scheduler into a long-running multi-device
// serving system: an open-loop arrival trace flows through admission
// control (admit.go) onto a fleet of devices behind deterministic
// load-aware routing, while the hypervisor (hypervisor.go) re-arbitrates
// per-tenant SM shares and rebalances devices through checkpoint +
// warm-pool restore. Devices advance independently between global
// admission barriers — the parallel axis — and every cross-device
// decision runs serially at a barrier on state merged in device-id
// order, so the decision log and SLO tables are byte-identical at every
// worker count.

// ServeConfig configures a serving run.
type ServeConfig struct {
	// Sched carries the device model, kernel scale, verify and metrics
	// settings. SlabBytes must divide the usable device memory into the
	// per-device slab pool (0 picks SlabsPerDevice even slabs).
	Sched Config
	// Devices is the initial fleet size (migration retires and adds
	// device ids, keeping the alive count constant). Default 2.
	Devices int
	// Workers caps how many devices advance concurrently between
	// barriers; 0/1 is serial. Output is identical at every setting.
	Workers int
	// AdmitEvery is the admission/routing barrier cadence in cycles.
	// Default 2000.
	AdmitEvery int64
	// SlabsPerDevice bounds each device's outstanding jobs (a job holds
	// one memory slab from admission to completion). Default 8 — the
	// slab pool divides device memory, and filled-SM workloads overflow
	// slabs much under a few megabytes.
	SlabsPerDevice int
	// WarmPool pre-builds this many warm device shells for migration
	// restores. 0 restores cold.
	WarmPool int
	// ReportEvery is the decision-log aggregate cadence; 0 defaults to
	// Hypervisor.Every, else 16 admission windows.
	ReportEvery int64

	// DecisionSink, when non-nil, receives each decision-log line
	// (rendered with ServeEvent.String) the moment it is emitted,
	// instead of the run accumulating events in memory. With a sink set,
	// ServeResult.Events stays empty; callers that need the log after
	// the tables (the schedsim golden does) spool the sink to a file and
	// replay it. The caller flushes the sink.
	DecisionSink *trace.LineSink

	Admit      AdmitConfig
	Hypervisor HypervisorConfig
}

// ServeEvent is one line of the serving decision log.
type ServeEvent struct {
	Cycle  int64
	What   string // window, shed, shares, starve-boost, migrate
	Tenant int    // -1 when fleet-scoped
	Device int    // -1 when not device-bound
	Detail string
}

func (e ServeEvent) String() string {
	return fmt.Sprintf("%10d %-13s t=%-3d dev=%-3d %s", e.Cycle, e.What, e.Tenant, e.Device, e.Detail)
}

// TenantSLO is one tenant's service-level summary.
type TenantSLO struct {
	Tenant    int
	Arrived   int
	Admitted  int
	Shed      int
	Completed int
	// ShedPerMille is Shed*1000/Arrived (0 when nothing arrived).
	ShedPerMille int64
	Preemptions  int64
	// MeanQueueCycles averages arrival -> first placement over completed
	// jobs (admission deferral included).
	MeanQueueCycles int64
	// P50/P95/P99 are exact nearest-rank turnaround percentiles over
	// completed jobs.
	P50, P95, P99 int64
}

// ServeResult is a serving run's deterministic outcome.
type ServeResult struct {
	Kind     preempt.Kind
	Duration int64 // final barrier cycle
	Makespan int64 // last completion cycle

	Arrived, Admitted, Shed, Completed int
	TotalPreemptions                   int64
	Rearbitrations, Migrations         int
	StarveBoosts                       int

	P50, P95, P99 int64
	Tenants       []TenantSLO

	// PreemptionJain and ThroughputJain are Jain fairness indices over
	// per-tenant preemptions-per-completed-job and completed counts.
	PreemptionJain, ThroughputJain float64

	Events []ServeEvent
}

// server is Serve's barrier schedule: the front door, the hypervisor
// and the per-tenant accounting on top of the fleet.
type server struct {
	f     *fleet
	cfg   ServeConfig
	admit *admitter
	hyper *hypervisor

	trace   []Job // (arrival, ID) order
	nextArr int

	// barrier clock and cadences
	T, nextReport, nextHyper int64
	lastProg, stall          int

	// per-tenant accounting
	arrived     []int
	completed   []int
	preemptions []int64
	queueSum    []int64
	turnarounds [][]int64

	makespan int64
	duration int64
}

func (sv *server) log(cycle int64, what string, tenant, device int, detail string) {
	sv.f.decide(ServeEvent{Cycle: cycle, What: what, Tenant: tenant, Device: device, Detail: detail})
}

// routable picks the admission destination: the least-loaded device
// with a free slab that is past any migration restore latency. nil
// when the fleet is at capacity.
func (sv *server) routable(now int64) *device {
	return sv.f.route(func(d *device) bool { return d.blockedUntil <= now && d.freeSlabs() > 0 })
}

// placeJob routes and admits one job at barrier now. The admission
// drain verified capacity, so a routing failure is an internal error.
func (sv *server) placeJob(j Job, now int64) error {
	dev := sv.routable(now)
	if dev == nil {
		return fmt.Errorf("sched: admitted job %d with no routable device", j.ID)
	}
	return sv.f.admit(dev, j, now)
}

// Serve runs the serving loop to completion and folds the SLO tables.
func Serve(cfg ServeConfig, kind preempt.Kind, jobs []Job) (*ServeResult, error) {
	sv, err := newServer(cfg, kind, jobs)
	if err != nil {
		return nil, err
	}
	if err := sv.f.drive(sv); err != nil {
		return nil, err
	}
	return sv.result(), nil
}

func newServer(cfg ServeConfig, kind preempt.Kind, jobs []Job) (*server, error) {
	if cfg.Devices <= 0 {
		cfg.Devices = 2
	}
	if cfg.AdmitEvery <= 0 {
		cfg.AdmitEvery = 2000
	}
	if cfg.SlabsPerDevice <= 0 {
		cfg.SlabsPerDevice = 8
	}
	if cfg.ReportEvery <= 0 {
		if cfg.Hypervisor.Every > 0 {
			cfg.ReportEvery = cfg.Hypervisor.Every
		} else {
			cfg.ReportEvery = 16 * cfg.AdmitEvery
		}
	}
	f, err := newFleet(cfg.Sched, kind, jobs, cfg.SlabsPerDevice, cfg.WarmPool)
	if err != nil {
		return nil, err
	}
	f.poolSlabs, f.workers, f.sink = cfg.SlabsPerDevice, cfg.Workers, cfg.DecisionSink
	for di := 0; di < cfg.Devices; di++ {
		if _, err := f.newDevice(0); err != nil {
			return nil, err
		}
	}
	sv := &server{f: f, cfg: cfg, trace: byArrival(jobs),
		admit:      newAdmitter(cfg.Admit, f.tenants),
		nextReport: cfg.ReportEvery, nextHyper: math.MaxInt64, lastProg: -1,
	}
	// Every kernel of the trace must fit a slab: refuse an oversized one
	// now rather than at its first admission.
	seen := make(map[string]bool)
	for _, j := range sv.trace {
		if !seen[j.Kernel] {
			seen[j.Kernel] = true
			if _, err := f.prepare(f.devices[0], j, 0); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Hypervisor.enabled() {
		sv.hyper = newHypervisor(cfg.Hypervisor, f.tenants)
		sv.nextHyper = cfg.Hypervisor.Every
	}
	sv.arrived = make([]int, f.tenants)
	sv.completed = make([]int, f.tenants)
	sv.preemptions = make([]int64, f.tenants)
	sv.queueSum = make([]int64, f.tenants)
	sv.turnarounds = make([][]int64, f.tenants)
	return sv, nil
}

func (sv *server) next() int64 {
	sv.T += sv.cfg.AdmitEvery
	return sv.T
}

// complete folds one completion into the tenant accounting and retires
// the finished launch from its device, so the device state — and with
// it any migration checkpoint — stays bounded by the outstanding window,
// not the lifetime job count. Without this a late migration's restore
// transfer grows linearly with every job ever served.
func (sv *server) complete(dev *device, c completion) error {
	rj := c.rj
	t := rj.job.Tenant
	sv.completed[t]++
	sv.preemptions[t] += int64(rj.preemptions)
	sv.queueSum[t] += rj.start - rj.job.Arrival
	sv.turnarounds[t] = append(sv.turnarounds[t], rj.complete-rj.job.Arrival)
	sv.makespan = max(sv.makespan, rj.complete)
	if rj.launch != nil {
		if err := dev.s.d.RemoveLaunch(rj.launch); err != nil {
			return fmt.Errorf("sched: pruning job %d: %w", rj.job.ID, err)
		}
		rj.launch = nil
	}
	return nil
}

// barrier runs one admission barrier: arrivals, admission and routing,
// the hypervisor, the window report, termination and the watchdog.
func (sv *server) barrier(T int64) (bool, error) {
	// Pull arrivals up to the barrier into the front door.
	for sv.nextArr < len(sv.trace) && sv.trace[sv.nextArr].Arrival <= T {
		j := sv.trace[sv.nextArr]
		sv.nextArr++
		sv.arrived[j.Tenant]++
		sv.admit.enqueue(j)
	}

	// Admission + routing, in global arrival order.
	if err := sv.admit.drain(T,
		func() bool { return sv.routable(T) != nil },
		func(j Job) error { return sv.placeJob(j, T) },
	); err != nil {
		return false, err
	}

	// Hypervisor pass: rebalance first so fresh quotas land on the
	// post-migration fleet.
	if T >= sv.nextHyper {
		if err := sv.hyper.maybeMigrate(sv, T); err != nil {
			return false, err
		}
		sv.hyper.rearbitrate(sv, T)
		for sv.nextHyper <= T {
			sv.nextHyper += sv.cfg.Hypervisor.Every
		}
	}

	if T >= sv.nextReport {
		sv.report(T, "")
		for sv.nextReport <= T {
			sv.nextReport += sv.cfg.ReportEvery
		}
	}

	// Termination: trace drained, nothing deferred, every device idle.
	if sv.nextArr == len(sv.trace) && sv.admit.backlog() == 0 && sv.f.allDone() {
		sv.report(T, " final")
		sv.duration = T
		return true, nil
	}

	// Watchdog: the loop must make progress — completions, arrivals
	// or admissions — or something is quota-wedged beyond what the
	// hypervisor can fix.
	prog := sv.nextArr
	for t := range sv.completed {
		prog += sv.completed[t] + sv.admit.admitted[t] + sv.admit.shed[t]
	}
	if prog == sv.lastProg {
		// A device still inside its migration restore latency is a
		// scheduled future event, not a stall: fast-forward the
		// barrier clock to the unblock and keep going.
		if next := sv.nextUnblock(T); next > T {
			if sv.nextArr < len(sv.trace) && sv.trace[sv.nextArr].Arrival < next {
				next = sv.trace[sv.nextArr].Arrival
			}
			if next-sv.cfg.AdmitEvery > T {
				sv.T = next - sv.cfg.AdmitEvery
			}
			sv.stall = 0
			return false, nil
		}
		sv.stall++
		if sv.stall > 10_000 {
			var b strings.Builder
			for _, dev := range sv.f.devices {
				if !dev.alive() {
					fmt.Fprintf(&b, " dev%d{retired}", dev.id)
					continue
				}
				fmt.Fprintf(&b, " dev%d{done=%v out=%d slabs=%d blocked=%d clock=%d}",
					dev.id, dev.done, dev.outstanding(), dev.freeSlabs(),
					dev.blockedUntil, dev.s.d.Now())
			}
			return false, fmt.Errorf("sched: serve made no progress for %d windows at cycle %d: backlog=%d%s",
				sv.stall, T, sv.admit.backlog(), b.String())
		}
	} else {
		sv.stall = 0
		sv.lastProg = prog
	}
	if T > sv.f.cfg.MaxCycles {
		return false, fmt.Errorf("sched: serve exceeded MaxCycles (%d) with %d jobs outstanding",
			sv.f.cfg.MaxCycles, sv.admit.backlog())
	}
	return false, nil
}

// nextUnblock returns the earliest future cycle at which a
// restore-blocked alive device becomes routable, or 0 when none is
// blocked past now.
func (sv *server) nextUnblock(now int64) int64 {
	var next int64
	for _, dev := range sv.f.devices {
		if !dev.alive() || dev.blockedUntil <= now {
			continue
		}
		if next == 0 || dev.blockedUntil < next {
			next = dev.blockedUntil
		}
	}
	return next
}

// report flushes the window aggregates into the decision log: one
// shed line per tenant that shed, then the window line (suffix marks
// the closing one, so the log always ends at the final barrier).
func (sv *server) report(T int64, suffix string) {
	admitted, shed := sv.admit.flushWindow()
	for t, n := range shed {
		if n > 0 {
			sv.log(T, "shed", t, -1, fmt.Sprintf("n=%d queue=%d", n, sv.admit.tenantBacklog(t)))
		}
	}
	done := 0
	for _, c := range sv.completed {
		done += c
	}
	sv.log(T, "window", -1, -1,
		fmt.Sprintf("admitted=%d backlog=%d done=%d%s", admitted, sv.admit.backlog(), done, suffix))
}

// jain computes the Jain fairness index (sum x)^2 / (n * sum x^2) over
// the non-degenerate entries; 1.0 for an empty or all-zero vector.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

func (sv *server) result() *ServeResult {
	r := &ServeResult{Kind: sv.f.kind, Duration: sv.duration, Makespan: sv.makespan}
	for _, e := range sv.f.events {
		r.Events = append(r.Events, e.(ServeEvent))
	}
	var all []int64
	tenants := sv.f.tenants
	px := make([]float64, tenants)
	tx := make([]float64, tenants)
	for t := 0; t < tenants; t++ {
		turns := append([]int64(nil), sv.turnarounds[t]...)
		sort.Slice(turns, func(i, j int) bool { return turns[i] < turns[j] })
		all = append(all, turns...)
		slo := TenantSLO{Tenant: t,
			Arrived:     sv.arrived[t],
			Admitted:    sv.admit.admitted[t],
			Shed:        sv.admit.shed[t],
			Completed:   sv.completed[t],
			Preemptions: sv.preemptions[t],
		}
		if slo.Arrived > 0 {
			slo.ShedPerMille = int64(slo.Shed) * 1000 / int64(slo.Arrived)
		}
		if slo.Completed > 0 {
			slo.MeanQueueCycles = divRound(sv.queueSum[t], int64(slo.Completed))
			slo.P50 = trace.Percentile(turns, 0.50)
			slo.P95 = trace.Percentile(turns, 0.95)
			slo.P99 = trace.Percentile(turns, 0.99)
			px[t] = float64(slo.Preemptions) / float64(slo.Completed)
		}
		tx[t] = float64(slo.Completed)
		r.Arrived += slo.Arrived
		r.Admitted += slo.Admitted
		r.Shed += slo.Shed
		r.Completed += slo.Completed
		r.TotalPreemptions += slo.Preemptions
		r.Tenants = append(r.Tenants, slo)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	r.P50, r.P95, r.P99 = trace.Percentile(all, 0.50), trace.Percentile(all, 0.95), trace.Percentile(all, 0.99)
	r.PreemptionJain = jain(px)
	r.ThroughputJain = jain(tx)
	if sv.hyper != nil {
		r.Rearbitrations = sv.hyper.rearbs
		r.Migrations = sv.hyper.migrations
		r.StarveBoosts = sv.hyper.starveBoosts
	}
	sv.exportMetrics(r)
	return r
}

// exportMetrics publishes serve counters and latency histograms.
func (sv *server) exportMetrics(r *ServeResult) {
	m := sv.f.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter("serve.arrived").Add(int64(r.Arrived))
	m.Counter("serve.admitted").Add(int64(r.Admitted))
	m.Counter("serve.shed").Add(int64(r.Shed))
	m.Counter("serve.completed").Add(int64(r.Completed))
	m.Counter("serve.preemptions").Add(r.TotalPreemptions)
	m.Counter("serve.migrations").Add(int64(r.Migrations))
	m.Counter("serve.rearbitrations").Add(int64(r.Rearbitrations))
	h := m.Histogram("serve.turnaround_cycles", trace.DefaultCycleBuckets)
	for t := range sv.turnarounds {
		for _, v := range sv.turnarounds[t] {
			h.Observe(v)
		}
	}
}

// Render formats the serving report: fleet headline, hypervisor
// counters, the per-tenant SLO table and the fairness indices.
func (r *ServeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s serve: duration=%d makespan=%d arrived=%d admitted=%d shed=%d completed=%d preemptions=%d\n",
		r.Kind, r.Duration, r.Makespan, r.Arrived, r.Admitted, r.Shed, r.Completed, r.TotalPreemptions)
	fmt.Fprintf(&b, "  turnaround p50/p95/p99 = %d/%d/%d cycles\n", r.P50, r.P95, r.P99)
	fmt.Fprintf(&b, "  hypervisor: rearbitrations=%d migrations=%d starve-boosts=%d\n",
		r.Rearbitrations, r.Migrations, r.StarveBoosts)
	fmt.Fprintf(&b, "  %-8s %7s %7s %6s %6s %7s %9s %11s %11s %11s %11s\n",
		"tenant", "arrive", "admit", "shed", "shed‰", "done", "preempts", "mean-queue", "p50-turn", "p95-turn", "p99-turn")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  %-8d %7d %7d %6d %6d %7d %9d %11d %11d %11d %11d\n",
			t.Tenant, t.Arrived, t.Admitted, t.Shed, t.ShedPerMille, t.Completed,
			t.Preemptions, t.MeanQueueCycles, t.P50, t.P95, t.P99)
	}
	fmt.Fprintf(&b, "  fairness: preemption-jain=%.4f throughput-jain=%.4f\n",
		r.PreemptionJain, r.ThroughputJain)
	return b.String()
}

// EventLog renders the serving decision log, one event per line.
func (r *ServeResult) EventLog() string {
	var b strings.Builder
	for _, e := range r.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
