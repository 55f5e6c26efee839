package harness

import (
	"ctxback/internal/faults"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
)

// Snapshot-corruption chaos (mode "snapshot"): a parked preemption
// episode is checkpointed with the whole device, the checkpoint's
// SPECULATIVE copy is corrupted per the injector's draw (truncation,
// bit flip, stale epoch), and the job must still finish with exact
// output on a restored device. Detection is layered like the live-fault
// modes:
//
//   - truncations, stale epochs and most bit flips fail the speculative
//     decode's section checksums up front; the restore falls back to
//     the authoritative synchronous image in-episode.
//   - a bit flip inside the bulk memory section (whose checksum the
//     speculative path defers) restores successfully and is only caught
//     AFTER replay — by the deferred checksum, the resume-integrity
//     oracle, or an execution trap — forcing a synchronous re-restore.
//
// Only when the re-restored replay is caught again does the episode
// degrade through the BASELINE loop. Silent-wrong remains the outcome
// that must never occur.

// chaosSnapEpoch is the epoch every mode-"snapshot" checkpoint carries;
// a stale-epoch fault re-encodes the speculative copy at epoch-1.
const chaosSnapEpoch = 2

// corruptSpec derives the corrupted speculative copy for one drawn
// snapshot fault. The authoritative image is never touched — snapshot
// faults model loss on the speculative streaming path, so every class
// is recoverable by design; the sweep proves the recovery actually
// engages.
func corruptSpec(sf faults.SnapFault, raw uint64, snap *snapshot.Snapshot, enc []byte) []byte {
	switch sf {
	case faults.SnapTruncate:
		return enc[:raw%uint64(len(enc))]
	case faults.SnapFlip:
		bad := append([]byte(nil), enc...)
		bit := raw % uint64(8*len(bad))
		bad[bit/8] ^= 1 << (bit % 8)
		return bad
	case faults.SnapStale:
		stale := *snap
		stale.Epoch = chaosSnapEpoch - 1
		return snapshot.Encode(&stale)
	}
	return enc
}

// runSnapshotCell classifies one snapshot-corruption cell end to end.
func (r *Runner) runSnapshotCell(p *prepared, cell *ChaosCell, fcfg faults.Config, oracle func(*sim.Warp) error) error {
	var (
		enc       []byte // the authoritative image, once parked
		recovered bool   // a snapshot fault was absorbed in-episode
	)
	e := r.chaosEpisode(p, cell.Kind)
	// The oracle rides on the restored devices only: an oracle on the
	// original device would capture signal-time snapshots into the
	// checkpoint and move every drawn corruption.
	restore := func(pk *Parked, spec []byte) error {
		// The authoritative image is never corrupted, so a failed
		// restore is an infrastructure failure, not a detection.
		res, err := pk.Restore(cell.Kind, p.wl.Prog, spec, enc, chaosSnapEpoch)
		if err != nil {
			return err
		}
		res.Device.SetResumeChecker(oracle)
		if res.Outcome.SyncFallback {
			recovered = true
			cell.Detected = res.Outcome.SpecError
		}
		return nil
	}
	e.Parked = func(pk *Parked) error {
		snap, b := snapshot.Capture(pk.Device, chaosSnapEpoch)
		enc = b
		inj, err := faults.NewInjector(fcfg)
		if err != nil {
			return err
		}
		sf, raw := inj.SnapshotFault(0)
		cell.SnapFault = sf.String()
		return restore(pk, corruptSpec(sf, raw, snap, enc))
	}
	run, err := e.Run()
	if err != nil {
		return err
	}
	if run.Detected != nil && enc != nil {
		// The corruption slipped past the speculative decode and was
		// caught after replay: discard the suspect device and restore
		// synchronously from the authoritative image.
		recovered = true
		cell.Detected = run.Detected.Error()
		pk := &Parked{}
		if err := restore(pk, nil); err != nil {
			return err
		}
		*run = EpisodeRun{}
		if err := e.resume(run, pk); err != nil {
			return err
		}
	}
	e.Faults = &fcfg // a degraded cell re-runs in the same fault environment
	return classifyCell(e, cell, run, recovered)
}
