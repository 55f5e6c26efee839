package harness

import (
	"errors"
	"fmt"

	"ctxback/internal/cfg"
	"ctxback/internal/faults"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/liveness"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
)

// MaxSignalAttempts bounds the redelivery of a lost preemption signal:
// the eighth loss escalates as an in-band detection.
const MaxSignalAttempts = 8

// fallbackSalt derives the fault seed of the salted BASELINE fallback.
const fallbackSalt = 0xFA11BACC

// Episode is one preemption episode of a workload on a fresh device —
// the protocol every experiment, the generated-corpus sweep and gpusim
// share. Run does, in order: launch and run to Signal; preempt SM 0,
// re-raising a lost signal up to MaxSignalAttempts times; run until the
// save completes; call Parked; resume and run until every victim
// regained its progress; with Complete, run to completion and verify.
type Episode struct {
	Cfg       sim.Config
	MaxCycles int64
	Workload  *kernels.Workload
	Kind      preempt.Kind
	Signal    int64
	// Faults, when non-nil, is injected into the device.
	Faults *faults.Config
	// Oracle, when non-nil, is installed as the resume-integrity checker
	// (see NewOracle).
	Oracle func(*sim.Warp) error
	// Setup, when non-nil, prepares the fresh device before the launch.
	Setup func(*sim.Device)
	// OnLost, when non-nil, observes each lost signal before it is
	// re-raised (attempt counts from 1).
	OnLost func(attempt int)
	// Parked, when non-nil, runs once the save completes. It may move
	// the episode to another device before the resume (see
	// Parked.Restore).
	Parked func(*Parked) error
	// Complete runs the device to completion after the episode — after a
	// drain, the uninterrupted remainder — and verifies the output.
	Complete bool
}

// Parked is a saved episode, handed to Episode.Parked.
type Parked struct {
	Device *sim.Device
	Ep     *sim.Episode
	// Validate, when set, settles a restore's deferred validation after
	// completion; a failure is an in-band detection.
	Validate func() error
}

// EpisodeRun is what an episode did. A nil error from Run means the
// outcome is one of: drained, detected, or resumed (and, with Complete,
// verified into VerifyErr).
type EpisodeRun struct {
	Device *sim.Device  // the device the episode ended on
	Ep     *sim.Episode // nil when drained or never delivered
	// Drained: SM 0 had nothing to preempt at the signal.
	Drained bool
	// ReRaised counts lost signals, including an exhausting last one.
	ReRaised int
	// Detected is the in-band fault detection that ended the episode.
	Detected error
	// VerifyErr is the output check against the reference (Complete).
	VerifyErr error
}

// DetectedFault reports whether err is an in-band fault detection, as
// opposed to an infrastructure failure: an escalated transfer fault, an
// integrity violation (checksum or oracle), an exhausted lost-signal
// redelivery, an execution trap (corrupted state steering a warp into
// an illegal access traps before wrong output commits), or a cycle
// budget overrun (corrupted state can spin a warp forever).
func DetectedFault(err error) bool {
	var xfer *sim.TransferFaultError
	var integ *sim.IntegrityError
	var budget *sim.BudgetError
	return errors.As(err, &xfer) || errors.As(err, &integ) || errors.As(err, &budget) ||
		errors.Is(err, sim.ErrSignalLost) || sim.IsExecutionFault(err)
}

// classifyPreemptErr discriminates the benign drained outcome (the SM
// had no running warps left — an expected race between the signal and
// kernel completion) from real preemption failures, which must
// propagate. Non-drain errors pass through unchanged.
func classifyPreemptErr(err error) (drained bool, failure error) {
	if err == nil {
		return false, nil
	}
	if errors.Is(err, sim.ErrDrained) {
		return true, nil
	}
	return false, err
}

func (e *Episode) errorf(step string, err error) error {
	return fmt.Errorf("%s/%v %s: %w", e.Workload.Abbrev, e.Kind, step, err)
}

// Run runs the episode. The error is an infrastructure failure only;
// fault detections land in EpisodeRun.Detected.
func (e *Episode) Run() (*EpisodeRun, error) {
	tech, err := preempt.New(e.Kind, e.Workload.Prog)
	if err != nil {
		return nil, fmt.Errorf("%s/%v: %w", e.Workload.Abbrev, e.Kind, err)
	}
	d, err := sim.NewDevice(e.Cfg)
	if err != nil {
		return nil, err
	}
	if e.Faults != nil {
		if err := d.InjectFaults(*e.Faults); err != nil {
			return nil, err
		}
	}
	if e.Oracle != nil {
		d.SetResumeChecker(e.Oracle)
	}
	if e.Setup != nil {
		e.Setup(d)
	}
	d.AttachRuntime(tech)
	launch, err := e.Workload.Launch(d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Workload.Abbrev, err)
	}
	// Pre-signal execution injects no detectable faults.
	if err := d.RunToCycle(e.Signal, e.MaxCycles); err != nil {
		return nil, e.errorf("run to signal", err)
	}
	run := &EpisodeRun{Device: d}
	if launch.Done() {
		run.Drained = true
		return run, e.complete(run, nil)
	}
	for run.Ep == nil {
		ep, err := d.Preempt(0, tech)
		switch {
		case err == nil:
			run.Ep = ep
		case errors.Is(err, sim.ErrSignalLost):
			if run.ReRaised++; run.ReRaised >= MaxSignalAttempts {
				run.Detected = err
				return run, nil
			}
			if e.OnLost != nil {
				e.OnLost(run.ReRaised)
			}
		default:
			drained, failure := classifyPreemptErr(err)
			if !drained {
				return nil, e.errorf("preempt", failure)
			}
			run.Drained = true
			return run, e.complete(run, nil)
		}
	}
	if err := d.RunUntil(run.Ep.Saved, e.MaxCycles); err != nil {
		return run, e.detect(run, "save", err)
	}
	pk := &Parked{Device: d, Ep: run.Ep}
	if e.Parked != nil {
		if err := e.Parked(pk); err != nil {
			return nil, err
		}
	}
	return run, e.resume(run, pk)
}

// resume finishes a parked episode: resume, run until every victim
// regained its progress, then complete.
func (e *Episode) resume(run *EpisodeRun, pk *Parked) error {
	d, ep := pk.Device, pk.Ep
	run.Device, run.Ep = d, ep
	if err := d.Resume(ep); err != nil {
		return e.detect(run, "resume", err)
	}
	if err := d.RunUntil(ep.Finished, e.MaxCycles); err != nil {
		return e.detect(run, "replay", err)
	}
	return e.complete(run, pk.Validate)
}

// complete runs the device dry, settles deferred validation and checks
// the output, when the episode asks for it.
func (e *Episode) complete(run *EpisodeRun, validate func() error) error {
	if !e.Complete {
		return nil
	}
	if err := run.Device.Run(e.MaxCycles); err != nil {
		if run.Ep == nil {
			return e.errorf("completion", err) // nothing was preempted to detect
		}
		return e.detect(run, "completion", err)
	}
	if validate != nil {
		if err := validate(); err != nil {
			run.Detected = err
			return nil
		}
	}
	run.VerifyErr = e.Workload.Verify(run.Device)
	return nil
}

// detect files err as the episode's in-band detection, or returns it as
// an infrastructure failure.
func (e *Episode) detect(run *EpisodeRun, step string, err error) error {
	if DetectedFault(err) {
		run.Detected = err
		return nil
	}
	return e.errorf(step, err)
}

// Restore moves the parked episode onto a device restored from a
// whole-device snapshot: spec is the stream the speculative path reads
// (nil restores synchronously from enc alone), enc the authoritative
// image. The restored device resumes in place of the original.
func (pk *Parked) Restore(kind preempt.Kind, prog *isa.Program, spec, enc []byte, epoch uint64) (*snapshot.Restored, error) {
	tech, err := preempt.New(kind, prog)
	if err != nil {
		return nil, err
	}
	res, err := snapshot.Restore(nil, spec, enc, epoch, tech, prog)
	if err != nil {
		return nil, err
	}
	if len(res.Index.Episodes) != 1 {
		return nil, fmt.Errorf("restored %d episodes, want 1", len(res.Index.Episodes))
	}
	pk.Device, pk.Ep, pk.Validate = res.Device, res.Index.Episodes[0], res.Validate
	return res, nil
}

// Degrade is the BASELINE degradation loop: a faulted episode abandons
// its device and the job re-runs through BASELINE at the same signal —
// first under a salted fault schedule (the faulty environment persists;
// a different schedule is drawn), then fault-free. It returns the
// attempts used and whether one completed with verified output.
func Degrade(e Episode) (attempts int, ok bool, err error) {
	var salted faults.Config
	if e.Faults != nil {
		salted = *e.Faults
	}
	salted.Seed = faults.DeriveSeed(salted.Seed, fallbackSalt)
	e.Kind, e.Oracle, e.Setup, e.OnLost, e.Parked, e.Complete = preempt.Baseline, nil, nil, nil, nil, true
	for _, fc := range []*faults.Config{&salted, nil} {
		attempts++
		e.Faults = fc
		run, err := e.Run()
		if err != nil {
			return attempts, false, err
		}
		if run.Detected == nil && run.VerifyErr == nil {
			return attempts, true, nil
		}
	}
	return attempts, false, nil
}

// NewOracle builds the resume-integrity oracle for a workload: a warp
// that regains its logical progress exactly at its signal point must
// present its live-in architectural state unchanged from the snapshot
// taken when it observed the signal. Warps resuming elsewhere (deferral
// or flashback targets, replayed checkpoints) are skipped — their
// progress position legitimately differs. The check is liveness-exact:
// CTXBack leaves dead values and unobservable masked-out lanes
// unrestored, so only what the code below the signal can read is
// compared.
func NewOracle(wl *kernels.Workload) (func(*sim.Warp) error, error) {
	g, err := cfg.Build(wl.Prog)
	if err != nil {
		return nil, err
	}
	live, warpsPerBlock := liveness.Analyze(g), wl.WarpsPerBlock
	return func(w *sim.Warp) error {
		snap, rec := w.Snapshot(), w.Record()
		if snap == nil || rec == nil {
			return nil
		}
		if w.PC != rec.PCAtSignal || w.DynCount != rec.DynAtSignal {
			return nil
		}
		fail := func(format string, args ...any) error {
			return &sim.IntegrityError{WarpID: w.ID, Stage: "oracle",
				Detail: fmt.Sprintf(format, args...)}
		}
		// EXEC can be dead at the signal point (the instruction there
		// overwrites it without reading it, e.g. the s_setexec of a
		// reconvergence); a resume legitimately leaves it unrestored.
		if live.LiveIn[rec.PCAtSignal].Has(isa.Exec) && w.Exec != snap.Exec {
			return fail("EXEC %#x, snapshot %#x at pc %d", w.Exec, snap.Exec, w.PC)
		}
		for r := range live.LiveIn[rec.PCAtSignal] {
			switch r.Class {
			case isa.RegVector:
				// A live vector register whose masked-out lanes cannot be
				// observed below the signal point (no EXEC write or lane
				// read crossed while live) is only readable on the lanes
				// active at the signal; a resume may legitimately leave
				// the dead lanes unrestored.
				lanes := ^uint64(0)
				if !live.EscIn[rec.PCAtSignal].Has(r) {
					lanes = snap.Exec
				}
				for l, v := range w.VRegs[r.Index] {
					if lanes&(1<<uint(l)) == 0 {
						continue
					}
					if v != snap.VRegs[r.Index][l] {
						return fail("v%d[%d] = %#x, snapshot %#x at pc %d", r.Index, l, v, snap.VRegs[r.Index][l], w.PC)
					}
				}
			case isa.RegScalar:
				if w.SRegs[r.Index] != snap.SRegs[r.Index] {
					return fail("s%d = %#x, snapshot %#x at pc %d", r.Index, w.SRegs[r.Index], snap.SRegs[r.Index], w.PC)
				}
			case isa.RegSpecial:
				switch r.Index {
				case isa.SpecVCC:
					if w.VCC != snap.VCC {
						return fail("VCC %#x, snapshot %#x at pc %d", w.VCC, snap.VCC, w.PC)
					}
				case isa.SpecSCC:
					if w.SCC != snap.SCC {
						return fail("SCC %v, snapshot %v at pc %d", w.SCC, snap.SCC, w.PC)
					}
				}
			}
		}
		if warpsPerBlock == 1 && len(snap.LDSShare) > 0 {
			share := w.LDS.Data[w.LDSShareLo>>2 : w.LDSShareHi>>2]
			for i, v := range share {
				if v != snap.LDSShare[i] {
					return fail("LDS[%d] = %#x, snapshot %#x", i, v, snap.LDSShare[i])
				}
			}
		}
		return nil
	}, nil
}
