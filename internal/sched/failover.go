package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"ctxback/internal/isa"
	"ctxback/internal/kernels"
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
//   - jobs with no device state at the kill are re-admitted round-robin
//     to the surviving devices ("readmit");
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
// onComplete hook), mirroring real schedulers' result read-back — a
// kill can never lose output that was already delivered.

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

// decide records one fleet decision: streamed to the sink when set,
// accumulated on the result otherwise. Both paths render through
// FleetEvent.String, so the emitted bytes are identical.
func (fo *FailoverConfig) decide(fr *FleetResult, e FleetEvent) {
	if fo.DecisionSink != nil {
		fo.DecisionSink.WriteLine(e.String())
		return
	}
	fr.Decisions = append(fr.Decisions, e)
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

// fnv1a64 hashes b (FNV-1a, 64-bit).
func fnv1a64(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// slabDigest hashes one job's slab words on device d.
func slabDigest(d *sim.Device, memBase, slabBytes int) uint64 {
	words := d.Mem[memBase/4 : (memBase+slabBytes)/4]
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	return fnv1a64(buf)
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
	s := &scheduler{cfg: cfg, d: res.Device, mux: mux, kind: kind,
		progSeen: make(map[*isa.Program]bool),
		progOrder: append([]*isa.Program(nil), c.progs...)}
	for _, p := range c.progs {
		s.progSeen[p] = true
	}
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

// admitJob inserts a failover re-admission: the job keeps its identity,
// priority and fleet-global memory slab, but first competes for this
// scheduler's device at cycle at (the failover instant).
func (s *scheduler) admitJob(j Job, memBase int, at int64) error {
	p := s.cfg.Params
	p.MemBase = memBase
	wl, err := kernels.ByAbbrev(j.Kernel, p)
	if err != nil {
		return fmt.Errorf("sched: readmitting job %d: %w", j.ID, err)
	}
	occ, err := s.d.ComputeOccupancy(wl.Prog, p.WarpsPerBlock)
	if err != nil {
		return fmt.Errorf("sched: readmitting job %d (%s): %w", j.ID, j.Kernel, err)
	}
	p.NumBlocks = occ.BlocksPerSM
	wl, err = kernels.ByAbbrev(j.Kernel, p)
	if err != nil {
		return fmt.Errorf("sched: readmitting job %d: %w", j.ID, err)
	}
	tech, err := preempt.New(s.kind, wl.Prog)
	if err != nil {
		return fmt.Errorf("sched: readmitting job %d under %v: %w", j.ID, s.kind, err)
	}
	s.mux.add(wl.Prog, tech)
	rj := &runJob{job: j, wl: wl, sm: -1, admitAt: at}
	// Insert into the pending tail keeping (admitAt, ID) order so the
	// admission loop stays deterministic.
	pos := s.nextArr
	for pos < len(s.jobs) &&
		(s.jobs[pos].admitAt < at || (s.jobs[pos].admitAt == at && s.jobs[pos].job.ID < j.ID)) {
		pos++
	}
	s.jobs = append(s.jobs, nil)
	copy(s.jobs[pos+1:], s.jobs[pos:])
	s.jobs[pos] = rj
	return nil
}

// jobRecord is the host-side copy of one completed job's outcome.
type jobRecord struct {
	device    int
	digest    uint64
	verifyErr error
	seen      bool
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
	if len(jobs) == 0 {
		return nil, errors.New("sched: empty trace")
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
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 2_000_000_000
	}
	if cfg.SlabBytes <= 0 {
		cfg.SlabBytes = (cfg.Dev.GlobalMemBytes - slabBase) / len(jobs)
		cfg.SlabBytes -= cfg.SlabBytes % 4096
	}

	// Global (arrival, ID) order fixes every job's slab for the whole
	// fleet's lifetime and the round-robin partition.
	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Arrival != ordered[j].Arrival {
			return ordered[i].Arrival < ordered[j].Arrival
		}
		return ordered[i].ID < ordered[j].ID
	})
	slabOf := make(map[int]int, len(ordered))
	for i, j := range ordered {
		slabOf[j.ID] = i
	}
	parts := make([][]Job, fo.Devices)
	for i, j := range ordered {
		parts[i%fo.Devices] = append(parts[i%fo.Devices], j)
	}

	fr := &FleetResult{Kind: kind}
	records := make(map[int]*jobRecord, len(ordered))
	scheds := make([]*scheduler, fo.Devices)
	done := make([]bool, fo.Devices)
	offsets := make([]int64, fo.Devices)
	ckpts := make([]*ckpt, fo.Devices)

	// hook wires the host-side result copy-back into a scheduler.
	hook := func(s *scheduler, dev int) {
		s.onComplete = func(rj *runJob) {
			rec := &jobRecord{device: dev, seen: true}
			rec.digest = slabDigest(s.d, slabBase+slabOf[rj.job.ID]*cfg.SlabBytes, cfg.SlabBytes)
			if cfg.Verify {
				rec.verifyErr = rj.wl.Verify(s.d)
			}
			records[rj.job.ID] = rec
		}
	}
	for di := range parts {
		if len(parts[di]) == 0 {
			done[di] = true
			continue
		}
		s, err := newScheduler(cfg, kind, parts[di], slabOf)
		if err != nil {
			return nil, fmt.Errorf("sched: device %d: %w", di, err)
		}
		hook(s, di)
		scheds[di] = s
	}

	var pool *snapshot.Pool
	if fo.WarmPool > 0 {
		var err error
		pool, err = snapshot.NewPool(cfg.Dev, fo.WarmPool)
		if err != nil {
			return nil, err
		}
	}

	nextCkpt := int64(math.MaxInt64)
	if fo.CheckpointEvery > 0 {
		nextCkpt = fo.CheckpointEvery
	}
	killAt := int64(math.MaxInt64)
	if fo.KillDevice >= 0 {
		killAt = fo.KillCycle
	}
	var epoch uint64

	allDone := func() bool {
		for di := range scheds {
			if scheds[di] != nil && !done[di] {
				return false
			}
		}
		return true
	}

	for {
		stop := nextCkpt
		if killAt < stop {
			stop = killAt
		}
		for di := 0; di < len(scheds); di++ {
			if scheds[di] == nil || done[di] {
				continue
			}
			d, err := scheds[di].runTo(stop)
			if err != nil {
				return nil, fmt.Errorf("sched: device %d: %w", di, err)
			}
			done[di] = d
		}
		if stop == math.MaxInt64 {
			break
		}
		if stop == nextCkpt {
			epoch++
			for di := 0; di < len(scheds); di++ {
				if scheds[di] == nil || done[di] {
					continue
				}
				c, err := scheds[di].checkpoint(epoch)
				if err != nil {
					return nil, fmt.Errorf("sched: device %d: %w", di, err)
				}
				ckpts[di] = c
				fr.Checkpoints++
				fo.decide(fr, FleetEvent{Cycle: stop, What: "checkpoint",
					Device: di, Job: -1, Detail: fmt.Sprintf("epoch %d, %d bytes", epoch, len(c.enc))})
				if cfg.Metrics != nil {
					cfg.Metrics.Counter("snap.checkpoints").Add(1)
					cfg.Metrics.Counter("snap.checkpoint_bytes").Add(int64(len(c.enc)))
				}
			}
			nextCkpt += fo.CheckpointEvery
		}
		if stop == killAt {
			killAt = math.MaxInt64
			var err error
			scheds, done, offsets, ckpts, err = failover(fr, cfg, kind, fo, pool,
				scheds, done, offsets, ckpts, slabOf, hook)
			if err != nil {
				return nil, err
			}
		}
		if killAt == math.MaxInt64 && allDone() {
			break
		}
	}

	return assembleFleet(fr, cfg, scheds, offsets, records, ordered)
}

// failover performs the kill-time recovery and returns the grown fleet
// slices.
func failover(fr *FleetResult, cfg Config, kind preempt.Kind, fo FailoverConfig,
	pool *snapshot.Pool, scheds []*scheduler, done []bool, offsets []int64,
	ckpts []*ckpt, slabOf map[int]int,
	hook func(*scheduler, int)) ([]*scheduler, []bool, []int64, []*ckpt, error) {

	kd := fo.KillDevice
	kill := fo.KillCycle
	ks := scheds[kd]
	fo.decide(fr, FleetEvent{Cycle: kill, What: "kill", Device: kd, Job: -1,
		Detail: fmt.Sprintf("device state lost at cycle %d", kill)})
	done[kd] = true
	if ks == nil {
		return scheds, done, offsets, ckpts, nil
	}
	scheds[kd] = nil // the dead device never runs again

	var survivors []int
	for di := 0; di < len(scheds); di++ {
		if di != kd && scheds[di] != nil {
			survivors = append(survivors, di)
		}
	}

	c := ckpts[kd]
	useRestore := preempt.Relocatable(kind) && c != nil
	var carry, readmit []*runJob
	if useRestore {
		// Checkpoint-time classification: post-checkpoint progress on
		// the dead device is rolled back wholesale.
		for i, j := range ks.jobs {
			if i < len(c.meta.jobs) && c.meta.jobs[i].launchIdx >= 0 {
				carry = append(carry, j)
			} else {
				readmit = append(readmit, j)
			}
		}
	} else {
		// No usable checkpoint: every job with device state re-runs.
		for _, j := range ks.jobs {
			if j.launch != nil {
				carry = append(carry, j)
			} else {
				readmit = append(readmit, j)
			}
		}
		if len(survivors) == 0 {
			// Nowhere to re-admit: the rerun replays the whole partition.
			carry = append(carry, readmit...)
			sort.SliceStable(carry, func(i, j int) bool {
				if carry[i].job.Arrival != carry[j].job.Arrival {
					return carry[i].job.Arrival < carry[j].job.Arrival
				}
				return carry[i].job.ID < carry[j].job.ID
			})
			readmit = nil
		}
	}

	newID := -1
	if len(carry) > 0 {
		if useRestore {
			rs, res, err := restoreFrom(c, cfg, kind, ks.jobs, pool)
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("sched: restoring device %d checkpoint: %w", kd, err)
			}
			newID = len(scheds)
			hook(rs, newID)
			scheds = append(scheds, rs)
			done = append(done, false)
			offsets = append(offsets, 0) // resumes the checkpoint timeline
			ckpts = append(ckpts, nil)
			what := "restore-cold"
			if res.Outcome.Warm {
				what = "restore-warm"
			}
			fr.Restore = &res.Outcome
			fo.decide(fr, FleetEvent{Cycle: kill, What: what, Device: newID, Job: -1,
				Detail: fmt.Sprintf("epoch %d from cycle %d: %d jobs, setup %d + transfer %d cycles",
					c.epoch, c.cycle, len(carry), res.Outcome.SetupCycles, res.Outcome.TransferCycles)})
			if cfg.Metrics != nil {
				cfg.Metrics.Counter("snap.restore_"+map[bool]string{true: "warm", false: "cold"}[res.Outcome.Warm]).Add(1)
			}
			// Settle the speculative restore's deferred validation now:
			// the image is authoritative, so this must pass — a failure
			// is an infrastructure error, never silent.
			if err := res.Validate(); err != nil {
				return nil, nil, nil, nil, fmt.Errorf("sched: restored device %d failed validation: %w", kd, err)
			}
		} else {
			var rerun []Job
			for _, rj := range carry {
				rerun = append(rerun, rj.job)
			}
			rs, err := newScheduler(cfg, kind, rerun, slabOf)
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("sched: rerunning device %d jobs: %w", kd, err)
			}
			newID = len(scheds)
			hook(rs, newID)
			scheds = append(scheds, rs)
			done = append(done, false)
			offsets = append(offsets, kill) // recovery work starts at the kill
			ckpts = append(ckpts, nil)
			fo.decide(fr, FleetEvent{Cycle: kill, What: "rerun", Device: newID, Job: -1,
				Detail: fmt.Sprintf("%d jobs replay from scratch (no restorable checkpoint under %v)", len(carry), kind)})
			if cfg.Metrics != nil {
				cfg.Metrics.Counter("snap.reruns").Add(1)
			}
		}
	}

	targets := survivors
	if len(targets) == 0 && newID >= 0 {
		targets = []int{newID}
	}
	// Orphans route to the least-loaded target (fewest outstanding jobs,
	// ties to the lower device id); each readmit updates the load the
	// next one sees.
	if len(readmit) > 0 && len(targets) == 0 {
		return nil, nil, nil, nil, errors.New("sched: no device left to re-admit jobs onto")
	}
	for _, rj := range readmit {
		tgt := leastLoaded(scheds, targets)
		at := kill - offsets[tgt]
		if at < 0 {
			at = 0
		}
		if err := scheds[tgt].admitJob(rj.job, slabBase+slabOf[rj.job.ID]*cfg.SlabBytes, at); err != nil {
			return nil, nil, nil, nil, err
		}
		done[tgt] = false
		fo.decide(fr, FleetEvent{Cycle: kill, What: "readmit", Device: tgt,
			Job: rj.job.ID, Detail: fmt.Sprintf("from dead device %d", kd)})
		if cfg.Metrics != nil {
			cfg.Metrics.Counter("snap.readmits").Add(1)
		}
	}
	return scheds, done, offsets, ckpts, nil
}

// leastLoaded picks the readmission target deterministically: the
// device with the fewest outstanding (admitted, not yet complete) jobs;
// ties resolve to the lower device id.
func leastLoaded(scheds []*scheduler, targets []int) int {
	tgt := targets[0]
	for _, cand := range targets[1:] {
		co := len(scheds[cand].jobs) - scheds[cand].nDone
		to := len(scheds[tgt].jobs) - scheds[tgt].nDone
		if co < to || (co == to && cand < tgt) {
			tgt = cand
		}
	}
	return tgt
}

// assembleFleet folds every surviving scheduler's job state and the
// host-side completion records into the result.
func assembleFleet(fr *FleetResult, cfg Config, scheds []*scheduler,
	offsets []int64, records map[int]*jobRecord, ordered []Job) (*FleetResult, error) {
	for di, s := range scheds {
		if s == nil {
			continue
		}
		off := offsets[di]
		for _, rj := range s.jobs {
			rec := records[rj.job.ID]
			if rec == nil || !rec.seen {
				return nil, fmt.Errorf("sched: job %d never completed anywhere in the fleet", rj.job.ID)
			}
			if cfg.Verify && rec.verifyErr != nil {
				return nil, fmt.Errorf("sched: job %d (%s, tenant %d) output corrupt after failover: %w",
					rj.job.ID, rj.job.Kernel, rj.job.Tenant, rec.verifyErr)
			}
			st := JobStats{Job: rj.job, Start: rj.start + off, Complete: rj.complete + off,
				Preemptions: rj.preemptions}
			fr.Jobs = append(fr.Jobs, FleetJobStats{JobStats: st, Device: rec.device, Digest: rec.digest})
			fr.TotalPreemptions += int64(rj.preemptions)
			if st.Complete > fr.Makespan {
				fr.Makespan = st.Complete
			}
		}
	}
	if len(fr.Jobs) != len(ordered) {
		return nil, fmt.Errorf("sched: fleet finished %d of %d jobs", len(fr.Jobs), len(ordered))
	}
	sort.SliceStable(fr.Jobs, func(i, j int) bool {
		if fr.Jobs[i].Arrival != fr.Jobs[j].Arrival {
			return fr.Jobs[i].Arrival < fr.Jobs[j].Arrival
		}
		return fr.Jobs[i].ID < fr.Jobs[j].ID
	})
	var plain []JobStats
	for _, j := range fr.Jobs {
		plain = append(plain, j.JobStats)
	}
	fr.Tenants = tenantStats(plain)
	if cfg.Metrics != nil {
		exportFleetMetrics(cfg.Metrics, fr)
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
