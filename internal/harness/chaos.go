package harness

import (
	"fmt"

	"ctxback/internal/faults"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// Chaos is the robustness experiment: every technique's preemption
// episode is re-run under seed-driven fault injection (context-transfer
// failures, context corruption, lost/duplicated signals, pipeline
// stalls), and every episode must end in one of the benign outcomes —
// absorbed, detected-and-degraded, or skipped. An injected corruption
// that reaches the final output without any in-band detection is a
// silent-wrong episode, and the experiment exists to show there are
// zero of them.
//
// Detection is layered:
//
//   - mode "checksum": the per-warp save-time context checksum is
//     verified before any corrupted buffer is consumed at resume.
//   - mode "oracle": checksums are disabled and corruption must instead
//     be caught by the resume-integrity oracle (NewOracle), which diffs
//     what the resumed warp can still read against the architectural
//     snapshot captured at the preemption signal. Only
//     techniques that resume exactly at the signal point are swept in
//     this mode (BASELINE, LIVE, CTXBack) — re-executing or deferring
//     techniques resume elsewhere, where the snapshot cannot be diffed.
//   - mode "snapshot": the parked episode is whole-device checkpointed
//     (internal/snapshot) and the speculative restore copy is corrupted
//     — truncated, bit-flipped, or re-stamped with a stale epoch. The
//     section checksums, epoch check, deferred memory validation and
//     the resume-integrity oracle must between them catch every class;
//     recovery re-restores from the authoritative image in-episode.
//
// Every cell is one Episode; detection is DetectedFault, and a detected
// cell degrades through Degrade, the BASELINE loop. Only when both of
// its fallbacks fail is the episode unrecoverable.

// ChaosOutcome classifies one fault-injected episode.
type ChaosOutcome int

const (
	// ChaosClean: no injected fault touched the episode; output exact.
	ChaosClean ChaosOutcome = iota
	// ChaosRecovered: faults fired and were absorbed in-episode
	// (transfer retries, re-raised signals, absorbed duplicates).
	ChaosRecovered
	// ChaosFallback: a fault was detected in-band and the episode
	// completed through the BASELINE fallback with exact output.
	ChaosFallback
	// ChaosUnrecoverable: detection fired but every fallback failed.
	ChaosUnrecoverable
	// ChaosSilentWrong: the final output diverged from the reference
	// with no in-band detection. Must never happen.
	ChaosSilentWrong
	numChaosOutcomes
)

func (o ChaosOutcome) String() string {
	switch o {
	case ChaosClean:
		return "clean"
	case ChaosRecovered:
		return "recovered"
	case ChaosFallback:
		return "fallback"
	case ChaosUnrecoverable:
		return "UNRECOVERABLE"
	case ChaosSilentWrong:
		return "SILENT-WRONG"
	}
	return fmt.Sprintf("ChaosOutcome(%d)", int(o))
}

// code is the single-letter table cell for RenderChaos.
func (o ChaosOutcome) code() string {
	return [...]string{"C", "R", "F", "U", "S!"}[o]
}

// ChaosOptions configures the chaos sweep.
type ChaosOptions struct {
	// Seed is the root of every per-cell fault schedule; the full sweep
	// is reproducible from it.
	Seed uint64
	// Rates are the injected fault rates swept (applied to every fault
	// class via faults.Preset).
	Rates []float64
	// Kinds are the techniques swept in checksum mode.
	Kinds []preempt.Kind
	// OracleKinds are the techniques swept with checksums disabled,
	// relying on the resume-integrity oracle alone.
	OracleKinds []preempt.Kind
	// SnapshotKinds are the techniques swept in snapshot mode: the
	// parked episode is whole-device checkpointed, the speculative copy
	// corrupted (truncated, bit-flipped, stale epoch), and the job must
	// finish exactly on a restored device. Only relocatable techniques
	// (preempt.Relocatable) survive a snapshot trip.
	SnapshotKinds []preempt.Kind
}

// DefaultChaosOptions is the sweep used for EXPERIMENTS.md.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		Seed:          1,
		Rates:         []float64{0.02, 0.2},
		Kinds:         preempt.Kinds(),
		OracleKinds:   []preempt.Kind{preempt.Baseline, preempt.Live, preempt.CTXBack},
		SnapshotKinds: preempt.RelocatableKinds(),
	}
}

// ChaosCell is one (mode, rate, kernel, technique) episode of the sweep.
type ChaosCell struct {
	Mode    string // "checksum", "oracle" or "snapshot"
	Rate    float64
	Kernel  string
	Kind    preempt.Kind
	Outcome ChaosOutcome
	// Skipped: the sampled SM drained before the signal; nothing to
	// preempt (the uninterrupted remainder still verified).
	Skipped bool
	// Detected is the in-band detection that triggered degradation (or,
	// in snapshot mode, the in-episode recovery).
	Detected string
	// SnapFault is the injected snapshot-corruption class drawn in mode
	// "snapshot" ("" elsewhere).
	SnapFault string
	// Absorbed recovery work inside the (first) episode.
	Retries     int
	ReRaised    int
	DupAbsorbed int
	Corrupted   int
	// FallbackAttempts used before the episode completed (0 = none).
	FallbackAttempts int
}

// ChaosReport aggregates the sweep.
type ChaosReport struct {
	Opts    ChaosOptions
	Kernels []string
	Cells   []ChaosCell
	Counts  [numChaosOutcomes]int
	Skipped int
}

// SilentWrong returns the number of silent-wrong episodes (the headline
// robustness claim is that this is zero at any seed).
func (r *ChaosReport) SilentWrong() int { return r.Counts[ChaosSilentWrong] }

// Unrecoverable returns the number of episodes no fallback completed.
func (r *ChaosReport) Unrecoverable() int { return r.Counts[ChaosUnrecoverable] }

// chaosSignalFrac places every chaos episode's preemption signal at
// half the golden run.
const chaosSignalFrac = 0.5

// chaosEpisode is the episode of one chaos cell, before its faults and
// oracle are set.
func (r *Runner) chaosEpisode(p *prepared, kind preempt.Kind) Episode {
	return Episode{Cfg: r.o.Cfg, MaxCycles: r.o.MaxCycles, Workload: p.wl, Kind: kind,
		Signal: int64(chaosSignalFrac * float64(p.goldenCycles)), Complete: true}
}

// classifyCell files the outcome of a cell's episode e: a detection
// degrades through Degrade, wrong output without one is silent-wrong,
// and recovered marks faults absorbed in-episode.
func classifyCell(e Episode, cell *ChaosCell, run *EpisodeRun, recovered bool) error {
	switch {
	case run.Detected != nil:
		cell.Detected = run.Detected.Error()
		attempts, ok, err := Degrade(e)
		cell.FallbackAttempts = attempts
		cell.Outcome = ChaosUnrecoverable
		if ok {
			cell.Outcome = ChaosFallback
		}
		return err
	case run.VerifyErr != nil:
		cell.Outcome = ChaosSilentWrong
		cell.Skipped = run.Drained
	case run.Drained:
		cell.Skipped = true
	case recovered:
		cell.Outcome = ChaosRecovered
	default:
		cell.Outcome = ChaosClean
	}
	return nil
}

// chaosCellSeed derives the deterministic fault seed of one sweep cell.
func chaosCellSeed(root uint64, mode, ri, ki, kj int) uint64 {
	return faults.DeriveSeed(root, uint64(mode), uint64(ri), uint64(ki), uint64(kj))
}

// runChaosCell classifies one live-fault cell end to end, including
// degradation.
func (r *Runner) runChaosCell(p *prepared, cell *ChaosCell, fcfg faults.Config, oracle func(*sim.Warp) error) error {
	e := r.chaosEpisode(p, cell.Kind)
	e.Faults, e.Oracle = &fcfg, oracle
	run, err := e.Run()
	if err != nil {
		return err
	}
	cell.ReRaised = run.ReRaised
	if ep := run.Ep; ep != nil {
		cell.Retries, cell.DupAbsorbed, cell.Corrupted =
			ep.Faults.TransientRetries, ep.Faults.AbsorbedDupSignals, ep.Faults.CorruptedContexts
	}
	return classifyCell(e, cell, run, cell.Retries+cell.ReRaised+cell.DupAbsorbed > 0)
}

// Chaos sweeps fault rates x techniques x kernels, in both detection
// modes, across the worker pool. Cell outcomes are independent
// deterministic simulations, so the report is identical at every
// Parallelism setting.
func (r *Runner) Chaos(co ChaosOptions) (*ChaosReport, error) {
	if err := r.prepareAll(); err != nil {
		return nil, err
	}
	rep := &ChaosReport{Opts: co}
	for ki := range r.prep {
		rep.Kernels = append(rep.Kernels, r.prep[ki].p.wl.Abbrev)
	}

	// Enumerate cells: mode 0 = checksum detection over Kinds, mode 1 =
	// oracle-only detection (checksums disabled) over OracleKinds.
	type cellCfg struct {
		fcfg    faults.Config
		checker func(*sim.Warp) error
		ki      int
	}
	var cfgs []cellCfg
	oracles := make([]func(*sim.Warp) error, len(r.prep))
	for ki := range r.prep {
		oracle, err := NewOracle(r.prep[ki].p.wl)
		if err != nil {
			return nil, err
		}
		oracles[ki] = oracle
	}
	for ri, rate := range co.Rates {
		for ki := range r.prep {
			for kj, kind := range co.Kinds {
				fc := faults.Preset(chaosCellSeed(co.Seed, 0, ri, ki, kj), rate)
				rep.Cells = append(rep.Cells, ChaosCell{Mode: "checksum", Rate: rate,
					Kernel: rep.Kernels[ki], Kind: kind})
				cfgs = append(cfgs, cellCfg{fcfg: fc, checker: oracles[ki], ki: ki})
			}
			for kj, kind := range co.OracleKinds {
				fc := faults.Config{
					Seed:            chaosCellSeed(co.Seed, 1, ri, ki, kj),
					CorruptRate:     rate,
					DisableChecksum: true,
				}
				rep.Cells = append(rep.Cells, ChaosCell{Mode: "oracle", Rate: rate,
					Kernel: rep.Kernels[ki], Kind: kind})
				cfgs = append(cfgs, cellCfg{fcfg: fc, checker: oracles[ki], ki: ki})
			}
			for kj, kind := range co.SnapshotKinds {
				fc := faults.Config{
					Seed:             chaosCellSeed(co.Seed, 2, ri, ki, kj),
					SnapTruncateRate: rate,
					SnapFlipRate:     rate,
					SnapStaleRate:    rate,
				}
				rep.Cells = append(rep.Cells, ChaosCell{Mode: "snapshot", Rate: rate,
					Kernel: rep.Kernels[ki], Kind: kind})
				cfgs = append(cfgs, cellCfg{fcfg: fc, checker: oracles[ki], ki: ki})
			}
		}
	}

	if err := r.runJobs(len(rep.Cells), func(i int) error {
		if rep.Cells[i].Mode == "snapshot" {
			return r.runSnapshotCell(r.prep[cfgs[i].ki].p, &rep.Cells[i], cfgs[i].fcfg, cfgs[i].checker)
		}
		return r.runChaosCell(r.prep[cfgs[i].ki].p, &rep.Cells[i], cfgs[i].fcfg, cfgs[i].checker)
	}); err != nil {
		return nil, err
	}
	for i := range rep.Cells {
		if rep.Cells[i].Skipped && rep.Cells[i].Outcome != ChaosSilentWrong {
			rep.Skipped++
			continue
		}
		rep.Counts[rep.Cells[i].Outcome]++
	}
	return rep, nil
}
