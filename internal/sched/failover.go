package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"ctxback/internal/isa"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
	"ctxback/internal/trace"
)

// Fleet failover: RunFleet partitions one arrival trace across several
// devices, checkpoints every device on a fixed cadence with
// internal/snapshot, and survives a chaos-injected device kill. The
// recovery moves are first-class scheduler decisions:
//
//   - jobs with no device state at the kill are re-admitted to the
//     least-loaded surviving device ("readmit");
//   - jobs with device state restore from the dead device's last
//     whole-device checkpoint onto a replacement shell — warm from the
//     context pool when one is configured ("restore-warm"), built cold
//     otherwise ("restore-cold") — and the replacement replays the dead
//     device's schedule cycle-exactly from the checkpoint;
//   - under techniques whose episodes do not survive a snapshot trip
//     (!preempt.Relocatable), or when no checkpoint exists yet, the dead
//     device's launched jobs deterministically re-run from scratch
//     ("rerun").
//
// Every job's kernel writes only its own fleet-global memory slab, and
// a job keeps that slab wherever it lands, so the final per-job slab
// bytes are a pure function of (kernel, params, MemBase) — independent
// of which device ran the job or when. That is the failover determinism
// argument: the killed run's final memory and verify state is
// byte-identical to the undisturbed run's, which the
// crash-at-every-boundary equivalence test checks digest by digest.
//
// Completed output is copied host-side the moment a job completes (the
// fleet's completion hook), mirroring real schedulers' result
// read-back — a kill can never lose output that was already delivered.

// FailoverConfig configures a fleet run.
type FailoverConfig struct {
	// Devices is the fleet width; the trace is partitioned round-robin
	// in (arrival, ID) order.
	Devices int
	// CheckpointEvery is the whole-device checkpoint cadence in cycles
	// (0 disables checkpointing; a kill then forces the rerun path).
	CheckpointEvery int64
	// KillDevice/KillCycle inject the device kill (-1 disables it).
	KillDevice int
	KillCycle  int64
	// WarmPool keeps this many pre-built device shells warm so a
	// restore skips construction (snapshot.ColdSetupCycles); 0 restores
	// cold.
	WarmPool int

	// DecisionSink, when non-nil, streams each decision-log line
	// (rendered with FleetEvent.String) as it is emitted instead of
	// accumulating FleetResult.Decisions; Render then omits the log and
	// the caller replays the sink after it. The caller flushes the sink.
	DecisionSink *trace.LineSink
}

// FleetEvent is one entry of the fleet-level decision log.
type FleetEvent struct {
	Cycle  int64
	What   string // checkpoint, kill, restore-warm, restore-cold, rerun, readmit
	Device int
	Job    int // -1 for device-scoped events
	Detail string
}

func (e FleetEvent) String() string {
	s := fmt.Sprintf("%10d %-12s dev=%d", e.Cycle, e.What, e.Device)
	if e.Job >= 0 {
		s += fmt.Sprintf(" job=%d", e.Job)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// FleetJobStats is one job's outcome across the fleet.
type FleetJobStats struct {
	JobStats
	// Device is the device the job's completion was observed on (a
	// replacement device gets the next free fleet id).
	Device int
	// Digest is the FNV-1a hash of the job's memory slab at completion,
	// the byte-comparable final-state witness.
	Digest uint64
}

// FleetResult is the outcome of one fleet run.
type FleetResult struct {
	Kind    preempt.Kind
	Jobs    []FleetJobStats // (arrival, ID) order
	Tenants []TenantStats
	// Makespan is the latest completion cycle anywhere in the fleet
	// (re-run recovery work is stamped relative to the kill instant).
	Makespan         int64
	TotalPreemptions int64
	Decisions        []FleetEvent
	// Checkpoints counts whole-device checkpoints taken.
	Checkpoints int
	// Restore reports the replacement restore's path and cost when the
	// failover restored from a checkpoint (nil otherwise).
	Restore *snapshot.Outcome
}

// slabDigest hashes one job's slab words on device d: FNV-1a (64-bit)
// over the words' little-endian bytes, without copying them out.
func slabDigest(d *sim.Device, memBase, slabBytes int) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, w := range d.Mem[memBase/4 : (memBase+slabBytes)/4] {
		for sh := 0; sh < 32; sh += 8 {
			h ^= uint64(byte(w >> sh))
			h *= prime
		}
	}
	return h
}

// ckpt is one device's checkpoint: the encoded snapshot plus the
// scheduler metadata needed to resume the schedule from it.
type ckpt struct {
	epoch uint64
	cycle int64
	enc   []byte
	progs []*isa.Program // first-launch order = DeviceState.Progs order
	meta  schedMeta
}

type schedMeta struct {
	nDone int
	jobs  []jobMeta // parallel to scheduler.jobs
	slots []slotMeta
}

type jobMeta struct {
	started         bool
	start, complete int64
	preemptions     int
	sm              int
	launchIdx       int // index into the export's Launches, -1 none
	episodeIdx      int // index into the export's Episodes, -1 none
}

type slotMeta struct {
	state       smState
	cur, victim int // indices into scheduler.jobs, -1 none
	parked      []int
}

// checkpoint exports the device and records where every job's launch
// and episode landed in the export, so a restore can re-link them.
func (s *scheduler) checkpoint(epoch uint64) (*ckpt, error) {
	st, idx := s.d.ExportState()
	enc := snapshot.Encode(&snapshot.Snapshot{Epoch: epoch, State: st})
	lidx := make(map[*sim.Launch]int, len(idx.Launches))
	for i, l := range idx.Launches {
		lidx[l] = i
	}
	eidx := make(map[*sim.Episode]int, len(idx.Episodes))
	for i, e := range idx.Episodes {
		eidx[e] = i
	}
	// The program list must mirror the export's first-seen-in-launch
	// order exactly: ImportState resolves embedded programs positionally.
	// Deriving it from the export (not progOrder) also keeps it correct
	// when completed launches have been pruned from the device.
	var progs []*isa.Program
	seenProg := make(map[*isa.Program]bool)
	for _, l := range idx.Launches {
		if !seenProg[l.Spec.Prog] {
			seenProg[l.Spec.Prog] = true
			progs = append(progs, l.Spec.Prog)
		}
	}
	c := &ckpt{epoch: epoch, cycle: s.d.Now(), enc: enc, progs: progs}
	c.meta.nDone = s.nDone
	jobPos := make(map[*runJob]int, len(s.jobs))
	for i, j := range s.jobs {
		jobPos[j] = i
		jm := jobMeta{started: j.started, start: j.start, complete: j.complete,
			preemptions: j.preemptions, sm: j.sm, launchIdx: -1, episodeIdx: -1}
		if j.launch != nil {
			li, ok := lidx[j.launch]
			if !ok {
				return nil, fmt.Errorf("sched: job %d launch missing from device export", j.job.ID)
			}
			jm.launchIdx = li
		}
		if j.episode != nil {
			ei, ok := eidx[j.episode]
			if !ok {
				return nil, fmt.Errorf("sched: job %d episode missing from device export", j.job.ID)
			}
			jm.episodeIdx = ei
		}
		c.meta.jobs = append(c.meta.jobs, jm)
	}
	for _, sl := range s.slots {
		sm := slotMeta{state: sl.state, cur: -1, victim: -1}
		if sl.cur != nil {
			sm.cur = jobPos[sl.cur]
		}
		if sl.victim != nil {
			sm.victim = jobPos[sl.victim]
		}
		for _, p := range sl.parked {
			sm.parked = append(sm.parked, jobPos[p])
		}
		c.meta.slots = append(c.meta.slots, sm)
	}
	return c, nil
}

// restoreFrom revives the checkpoint as a replacement scheduler: fresh
// technique instances drive the restored device (only relocatable kinds
// may take this path), and the schedule resumes restricted to the jobs
// that had a launch at the checkpoint — the rest re-admit elsewhere.
// The restore goes through the speculative path against the same
// authoritative image, so Validate is a cheap post-replay certainty
// check the fleet runs before trusting the replacement's output.
func restoreFrom(c *ckpt, cfg Config, kind preempt.Kind, orig []*runJob,
	pool *snapshot.Pool) (*scheduler, *snapshot.Restored, error) {
	if len(orig) != len(c.meta.jobs) {
		return nil, nil, fmt.Errorf("sched: checkpoint covers %d jobs, scheduler has %d",
			len(c.meta.jobs), len(orig))
	}
	mux := newMux(kind)
	for _, p := range c.progs {
		t, err := preempt.New(kind, p)
		if err != nil {
			return nil, nil, fmt.Errorf("sched: rebuilding %v for restore: %w", kind, err)
		}
		mux.add(p, t)
	}
	res, err := snapshot.Restore(pool, c.enc, c.enc, c.epoch, mux, c.progs...)
	if err != nil {
		return nil, nil, err
	}
	s := &scheduler{cfg: cfg, d: res.Device, mux: mux, kind: kind}
	kept := make(map[int]*runJob, len(orig))
	nDone := 0
	for i, jm := range c.meta.jobs {
		if jm.launchIdx < 0 {
			// Unlaunched (the caller re-admits it) or completed and
			// pruned from the image (it owes nothing): either way the
			// restored scheduler does not carry it.
			continue
		}
		if jm.complete != 0 {
			nDone++
		}
		o := orig[i]
		rj := &runJob{job: o.job, wl: o.wl, admitAt: o.admitAt, sm: jm.sm,
			started: jm.started, start: jm.start, complete: jm.complete,
			preemptions: jm.preemptions,
			launch:      res.Index.Launches[jm.launchIdx]}
		if jm.episodeIdx >= 0 {
			rj.episode = res.Index.Episodes[jm.episodeIdx]
		}
		kept[i] = rj
		s.jobs = append(s.jobs, rj)
	}
	s.nextArr = len(s.jobs)
	s.nDone = nDone
	for i, sm := range c.meta.slots {
		sl := &smSlot{id: i, state: sm.state}
		link := func(pos int) (*runJob, error) {
			rj := kept[pos]
			if rj == nil {
				return nil, fmt.Errorf("sched: slot %d references job without checkpoint launch", i)
			}
			return rj, nil
		}
		if sm.cur >= 0 {
			if sl.cur, err = link(sm.cur); err != nil {
				return nil, nil, err
			}
		}
		if sm.victim >= 0 {
			if sl.victim, err = link(sm.victim); err != nil {
				return nil, nil, err
			}
		}
		for _, pi := range sm.parked {
			p, err := link(pi)
			if err != nil {
				return nil, nil, err
			}
			sl.parked = append(sl.parked, p)
		}
		s.slots = append(s.slots, sl)
	}
	return s, res, nil
}

// fleetRun is RunFleet's barrier schedule: whole-device checkpoints on
// a fixed cadence and one injected kill, over a static round-robin
// partition of the trace. Run is the same schedule on one device with
// neither.
type fleetRun struct {
	f                *fleet
	fo               FailoverConfig
	fr               *FleetResult
	jobs             int
	records          map[int]record
	nextCkpt, killAt int64
}

// record is where and with what slab digest a job last completed.
type record struct {
	device int
	digest uint64
}

// newFleetRun partitions the trace round-robin in (arrival, ID) order;
// that order also fixes every job's slab for the fleet's lifetime.
func newFleetRun(cfg Config, kind preempt.Kind, jobs []Job, fo FailoverConfig) (*fleetRun, error) {
	f, err := newFleet(cfg, kind, jobs, len(jobs), fo.WarmPool)
	if err != nil {
		return nil, err
	}
	f.sink = fo.DecisionSink
	ordered := byArrival(jobs)
	f.static = make(map[int]int, len(ordered))
	for i, j := range ordered {
		f.static[j.ID] = i
	}
	for di := 0; di < fo.Devices; di++ {
		if di >= len(ordered) {
			f.addDevice(nil, 0)
			continue
		}
		dev, err := f.newDevice(0)
		if err != nil {
			return nil, err
		}
		for i := di; i < len(ordered); i += fo.Devices {
			if err := f.admit(dev, ordered[i], ordered[i].Arrival); err != nil {
				return nil, err
			}
		}
	}
	fs := &fleetRun{f: f, fo: fo, fr: &FleetResult{Kind: kind}, jobs: len(ordered),
		records: make(map[int]record, len(ordered)), nextCkpt: math.MaxInt64, killAt: math.MaxInt64}
	if fo.CheckpointEvery > 0 {
		fs.nextCkpt = fo.CheckpointEvery
	}
	if fo.KillDevice >= 0 {
		fs.killAt = fo.KillCycle
	}
	return fs, nil
}

// RunFleet replays the arrival trace across a fleet of devices with
// periodic whole-device checkpoints and an optional injected device
// kill, and returns per-job and per-tenant statistics plus the failover
// decision log. The run is deterministic: devices advance in id order
// between globally-ordered boundaries, and every recovery decision is a
// pure function of checkpoint metadata.
func RunFleet(cfg Config, kind preempt.Kind, jobs []Job, fo FailoverConfig) (*FleetResult, error) {
	if fo.Devices <= 0 {
		fo.Devices = 2
	}
	if fo.KillDevice >= fo.Devices {
		return nil, fmt.Errorf("sched: kill device %d out of range (fleet has %d)", fo.KillDevice, fo.Devices)
	}
	if fo.KillDevice >= 0 && fo.KillCycle <= 0 {
		return nil, errors.New("sched: kill cycle must be positive")
	}
	if fo.CheckpointEvery < 0 {
		return nil, errors.New("sched: checkpoint cadence must be >= 0")
	}
	fs, err := newFleetRun(cfg, kind, jobs, fo)
	if err != nil {
		return nil, err
	}
	fs.f.digests = true
	if err := fs.f.drive(fs); err != nil {
		return nil, err
	}
	return fs.result()
}

func (fs *fleetRun) next() int64 { return min(fs.nextCkpt, fs.killAt) }

func (fs *fleetRun) complete(dev *device, c completion) error {
	fs.records[c.rj.job.ID] = record{device: dev.id, digest: c.digest}
	return nil
}

func (fs *fleetRun) barrier(T int64) (bool, error) {
	f := fs.f
	if T == math.MaxInt64 {
		return true, nil
	}
	if T == fs.nextCkpt {
		f.epoch++
		for _, dev := range f.devices {
			if !dev.alive() || dev.done {
				continue
			}
			c, err := dev.s.checkpoint(f.epoch)
			if err != nil {
				return false, fmt.Errorf("sched: device %d: %w", dev.id, err)
			}
			dev.ckpt = c
			fs.fr.Checkpoints++
			f.decide(FleetEvent{Cycle: T, What: "checkpoint", Device: dev.id, Job: -1,
				Detail: fmt.Sprintf("epoch %d, %d bytes", f.epoch, len(c.enc))})
			if m := f.cfg.Metrics; m != nil {
				m.Counter("snap.checkpoints").Add(1)
				m.Counter("snap.checkpoint_bytes").Add(int64(len(c.enc)))
			}
		}
		fs.nextCkpt += fs.fo.CheckpointEvery
	}
	if T == fs.killAt {
		fs.killAt = math.MaxInt64
		if err := fs.failover(); err != nil {
			return false, err
		}
	}
	return fs.killAt == math.MaxInt64 && f.allDone(), nil
}

// failover performs the kill-time recovery.
func (fs *fleetRun) failover() error {
	f, kill := fs.f, fs.fo.KillCycle
	dead := f.devices[fs.fo.KillDevice]
	f.decide(FleetEvent{Cycle: kill, What: "kill", Device: dead.id, Job: -1,
		Detail: fmt.Sprintf("device state lost at cycle %d", kill)})
	if !dead.alive() {
		return nil
	}
	survivor := func(d *device) bool { return d != dead }
	hasSurvivor := f.route(survivor) != nil

	// Checkpoint-time classification when the image can be restored:
	// post-checkpoint progress on the dead device is rolled back
	// wholesale. Otherwise every job with device state re-runs.
	c := dead.ckpt
	useRestore := preempt.Relocatable(f.kind) && c != nil
	var carry, orphans []*runJob
	for i, rj := range dead.s.jobs {
		launched := rj.launch != nil
		if useRestore {
			launched = i < len(c.meta.jobs) && c.meta.jobs[i].launchIdx >= 0
		}
		if launched {
			carry = append(carry, rj)
		} else {
			orphans = append(orphans, rj)
		}
	}
	if !useRestore && !hasSurvivor {
		// Nowhere to re-admit: the rerun replays the whole partition.
		carry, orphans = append(carry, orphans...), nil
	}

	var nd *device
	switch {
	case len(carry) == 0:
		dead.retire()
	case useRestore:
		var res *snapshot.Restored
		var err error
		if nd, res, _, err = f.relocate(dead, c); err != nil {
			return err
		}
		fs.fr.Restore = &res.Outcome
		f.decide(FleetEvent{Cycle: kill, What: "restore-" + warmCold(res.Outcome.Warm), Device: nd.id, Job: -1,
			Detail: fmt.Sprintf("epoch %d from cycle %d: %d jobs, setup %d + transfer %d cycles",
				c.epoch, c.cycle, len(carry), res.Outcome.SetupCycles, res.Outcome.TransferCycles)})
	default:
		dead.retire()
		var err error
		if nd, err = f.newDevice(kill); err != nil { // recovery work starts at the kill
			return err
		}
		for _, rj := range carry {
			if err := f.admit(nd, rj.job, rj.job.Arrival); err != nil {
				return err
			}
		}
		f.decide(FleetEvent{Cycle: kill, What: "rerun", Device: nd.id, Job: -1,
			Detail: fmt.Sprintf("%d jobs replay from scratch (no restorable checkpoint under %v)", len(carry), f.kind)})
		if m := f.cfg.Metrics; m != nil {
			m.Counter("snap.reruns").Add(1)
		}
	}

	// Orphans route to the surviving devices, or to the replacement when
	// none survive; each readmit updates the load the next one sees.
	target := func(d *device) bool { return d != nd }
	if !hasSurvivor {
		target = func(d *device) bool { return d == nd }
	}
	for _, rj := range orphans {
		tgt := f.route(target)
		if tgt == nil {
			return errors.New("sched: no device left to re-admit jobs onto")
		}
		if err := f.admit(tgt, rj.job, max(kill-tgt.offset, 0)); err != nil {
			return err
		}
		f.decide(FleetEvent{Cycle: kill, What: "readmit", Device: tgt.id,
			Job: rj.job.ID, Detail: fmt.Sprintf("from dead device %d", dead.id)})
		if m := f.cfg.Metrics; m != nil {
			m.Counter("snap.readmits").Add(1)
		}
	}
	return nil
}

// result folds every alive device's job state and the host-side
// completion records into the FleetResult.
func (fs *fleetRun) result() (*FleetResult, error) {
	fr := fs.fr
	for _, e := range fs.f.events {
		fr.Decisions = append(fr.Decisions, e.(FleetEvent))
	}
	for _, dev := range fs.f.devices {
		if !dev.alive() {
			continue
		}
		for _, rj := range dev.s.jobs {
			rec, ok := fs.records[rj.job.ID]
			if !ok {
				return nil, fmt.Errorf("sched: job %d never completed anywhere in the fleet", rj.job.ID)
			}
			st := JobStats{Job: rj.job, Start: rj.start + dev.offset, Complete: rj.complete + dev.offset,
				Preemptions: rj.preemptions}
			fr.Jobs = append(fr.Jobs, FleetJobStats{JobStats: st, Device: rec.device, Digest: rec.digest})
			fr.TotalPreemptions += int64(rj.preemptions)
			fr.Makespan = max(fr.Makespan, st.Complete)
		}
	}
	if len(fr.Jobs) != fs.jobs {
		return nil, fmt.Errorf("sched: fleet finished %d of %d jobs", len(fr.Jobs), fs.jobs)
	}
	slices.SortStableFunc(fr.Jobs, func(a, b FleetJobStats) int { return cmpArrival(a.Job, b.Job) })
	var plain []JobStats
	for _, j := range fr.Jobs {
		plain = append(plain, j.JobStats)
	}
	fr.Tenants = tenantStats(plain)
	if m := fs.f.cfg.Metrics; m != nil {
		exportFleetMetrics(m, fr)
	}
	return fr, nil
}

func exportFleetMetrics(m *trace.Registry, fr *FleetResult) {
	m.Counter("fleet.jobs").Add(int64(len(fr.Jobs)))
	m.Counter("fleet.preemptions").Add(fr.TotalPreemptions)
	h := m.Histogram("fleet.turnaround_cycles", trace.DefaultCycleBuckets)
	for _, j := range fr.Jobs {
		h.Observe(j.TurnaroundCycles())
	}
}

// Render formats the fleet result: headline, per-tenant aggregates, the
// per-job table (with landing device), then the failover decision log.
func (r *FleetResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s fleet: makespan=%d cycles, preemptions=%d, checkpoints=%d\n",
		r.Kind, r.Makespan, r.TotalPreemptions, r.Checkpoints)
	if r.Restore != nil {
		kind := "cold"
		if r.Restore.Warm {
			kind = "warm"
		}
		path := "synchronous"
		if r.Restore.Speculative {
			path = "speculative"
		}
		fmt.Fprintf(&b, "  failover restore: %s shell, %s path, setup=%d transfer=%d cycles\n",
			kind, path, r.Restore.SetupCycles, r.Restore.TransferCycles)
	}
	fmt.Fprintf(&b, "  %-8s %5s %11s %11s %12s %12s %12s\n",
		"tenant", "jobs", "preempts", "mean-queue", "p50-turn", "p95-turn", "p99-turn")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  %-8d %5d %11d %11d %12d %12d %12d\n",
			t.Tenant, t.Jobs, t.Preemptions, t.MeanQueueCycles, t.P50, t.P95, t.P99)
	}
	fmt.Fprintf(&b, "  %-4s %-6s %-7s %4s %4s %10s %10s %10s %9s\n",
		"job", "kernel", "tenant", "prio", "dev", "arrival", "complete", "turnaround", "preempts")
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "  %-4d %-6s %-7d %4d %4d %10d %10d %10d %9d\n",
			j.ID, j.Kernel, j.Tenant, j.Priority, j.Device, j.Arrival, j.Complete,
			j.TurnaroundCycles(), j.Preemptions)
	}
	for _, e := range r.Decisions {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// StateHash renders the schedule-independent final-state witness: one
// line per job with its slab digest and verified flag, in (arrival, ID)
// order. Two fleet runs of the same trace — disturbed or not — must
// render identical StateHash output.
func (r *FleetResult) StateHash() string {
	var b strings.Builder
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "job %3d %-6s slab %016x\n", j.ID, j.Kernel, j.Digest)
	}
	return b.String()
}
