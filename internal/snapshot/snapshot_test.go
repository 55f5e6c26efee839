package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ctxback/internal/artifact"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

const maxCycles = 500_000_000

func mustDevice(t testing.TB, cfg sim.Config) *sim.Device {
	t.Helper()
	d, err := sim.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustWorkload(t testing.TB, abbrev string) *kernels.Workload {
	t.Helper()
	wl, err := kernels.ByAbbrev(abbrev, kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// goldenCycles runs wl undisturbed and returns its completion cycle and
// final memory.
func goldenCycles(t testing.TB, wl *kernels.Workload) (int64, []uint32) {
	t.Helper()
	d := mustDevice(t, sim.TestConfig())
	if _, err := wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	return d.Now(), append([]uint32(nil), d.Mem...)
}

// parked drives wl under kind to a fully-saved (parked) episode on
// SM 0, signalled halfway through the golden run.
func parked(t testing.TB, kind preempt.Kind, wl *kernels.Workload) (*sim.Device, *sim.Episode, preempt.Technique) {
	t.Helper()
	cycles, _ := goldenCycles(t, wl)
	tech, err := preempt.New(kind, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	d := mustDevice(t, sim.TestConfig())
	d.AttachRuntime(tech)
	if _, err := wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.RunToCycle(cycles/2, maxCycles); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, tech)
	if err != nil {
		t.Fatalf("%v/%s: preempt at half-run should find victims: %v", kind, wl.Abbrev, err)
	}
	if err := d.RunUntil(ep.Saved, maxCycles); err != nil {
		t.Fatal(err)
	}
	return d, ep, tech
}

// finishRestored resumes the snapshot's episode on a restored device
// and drains it.
func finishRestored(t testing.TB, res *Restored) {
	t.Helper()
	if len(res.Index.Episodes) != 1 {
		t.Fatalf("restored %d episodes, want 1", len(res.Index.Episodes))
	}
	if err := res.Device.Resume(res.Index.Episodes[0]); err != nil {
		t.Fatal(err)
	}
	if err := res.Device.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatEncodeByteStable is the satellite-1 guard: encoding the
// same state twice, and re-encoding a decoded state, must be
// byte-identical — any map-iteration order leaking into the stream
// breaks this immediately (SavedContext slot maps are the hot spot, so
// the parked episode below carries full context buffers).
func TestRepeatEncodeByteStable(t *testing.T) {
	for _, abbrev := range []string{"VA", "MS", "DOT"} {
		d, _, _ := parked(t, preempt.Baseline, mustWorkload(t, abbrev))
		snap, enc := Capture(d, 7)
		for i := 0; i < 3; i++ {
			if again := Encode(snap); !bytes.Equal(enc, again) {
				t.Fatalf("%s: encode %d differs from first encode", abbrev, i+2)
			}
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", abbrev, err)
		}
		if dec.Epoch != 7 {
			t.Fatalf("%s: epoch %d, want 7", abbrev, dec.Epoch)
		}
		if again := Encode(dec); !bytes.Equal(enc, again) {
			t.Fatalf("%s: encode∘decode∘encode differs", abbrev)
		}
		if err := dec.State.CheckInvariants(); err != nil {
			t.Fatalf("%s: decoded state: %v", abbrev, err)
		}
	}
}

// TestRestoreRoundTripTechniques: for every relocatable technique, a
// parked episode checkpoints, restores onto a fresh shell under a NEW
// technique instance, resumes there, and finishes with output identical
// to the undisturbed run — the device-level flashback analogue of the
// per-warp golden-equivalence property.
func TestRestoreRoundTripTechniques(t *testing.T) {
	for _, kind := range preempt.RelocatableKinds() {
		for _, abbrev := range []string{"VA", "MS"} {
			wl := mustWorkload(t, abbrev)
			_, golden := goldenCycles(t, wl)
			d, _, _ := parked(t, kind, wl)
			_, enc := Capture(d, 1)

			tech2, err := preempt.New(kind, wl.Prog)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Restore(nil, nil, enc, 1, tech2, wl.Prog)
			if err != nil {
				t.Fatalf("%v/%s: restore: %v", kind, abbrev, err)
			}
			finishRestored(t, res)
			if err := res.Validate(); err != nil {
				t.Fatalf("%v/%s: validate: %v", kind, abbrev, err)
			}
			if err := wl.Verify(res.Device); err != nil {
				t.Fatalf("%v/%s: verify after restore: %v", kind, abbrev, err)
			}
			if !bytes.Equal(memBytes(res.Device.Mem), memBytes(golden)) {
				t.Fatalf("%v/%s: restored memory differs from undisturbed run", kind, abbrev)
			}
		}
	}
}

func memBytes(mem []uint32) []byte {
	out := make([]byte, 0, len(mem)*4)
	for _, w := range mem {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

// TestSnapshotMidSave covers the mid-episode edge: the checkpoint lands
// while victims are still executing their preemption routines, and the
// restored device completes the save, resumes, and verifies.
func TestSnapshotMidSave(t *testing.T) {
	wl := mustWorkload(t, "MS")
	cycles, _ := goldenCycles(t, wl)
	tech, err := preempt.New(preempt.CTXBack, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	d := mustDevice(t, sim.TestConfig())
	d.AttachRuntime(tech)
	if _, err := wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.RunToCycle(cycles/2, maxCycles); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Preempt(0, tech); err != nil {
		t.Fatal(err)
	}
	// A handful of cycles into the save: warps sit mid preemption
	// routine (ModePreemptRoutine) with partial context buffers.
	if err := d.RunToCycle(d.Now()+40, maxCycles); err != nil {
		t.Fatal(err)
	}
	_, enc := Capture(d, 3)

	tech2, err := preempt.New(preempt.CTXBack, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Restore(nil, enc, enc, 3, tech2, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	ep := res.Index.Episodes[0]
	rd := res.Device
	if err := rd.RunUntil(ep.Saved, maxCycles); err != nil {
		t.Fatal(err)
	}
	if err := rd.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := rd.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := wl.Verify(rd); err != nil {
		t.Fatalf("verify after mid-save restore: %v", err)
	}
}

// TestSpeculativeRestoreFlow exercises the PhoenixOS speculation state
// machine end to end: a bit flip in the bulk memory section passes the
// speculative structural decode, replay runs, and the deferred
// validator is what catches the corruption — after which the sync path
// with the authoritative bytes recovers the job.
func TestSpeculativeRestoreFlow(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Baseline, wl)
	_, enc := Capture(d, 5)

	// Flip one bit inside the memory payload (the last section; its
	// payload starts 14 bytes after the section tail begins... locate it
	// robustly by flipping a byte near the end, inside the payload,
	// before the trailing checksum).
	corrupt := append([]byte(nil), enc...)
	corrupt[len(corrupt)-16] ^= 0x10

	if _, err := Decode(corrupt); err == nil {
		t.Fatal("full decode accepted a corrupt memory section")
	}

	tech, err := preempt.New(preempt.Baseline, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Restore(nil, corrupt, enc, 5, tech, wl.Prog)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !res.Outcome.Speculative {
		t.Fatal("corrupt memory section should still restore speculatively")
	}
	finishRestored(t, res)
	if err := res.Validate(); err == nil {
		t.Fatal("deferred validator missed the memory corruption")
	}

	// The caller's mandated next move: synchronous restore from the
	// authoritative image. It must verify clean.
	tech2, err := preempt.New(preempt.Baseline, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Restore(nil, nil, enc, 5, tech2, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome.Speculative || res2.Outcome.SyncFallback {
		t.Fatalf("sync-only restore misreported outcome %+v", res2.Outcome)
	}
	finishRestored(t, res2)
	if err := wl.Verify(res2.Device); err != nil {
		t.Fatalf("verify after sync recovery: %v", err)
	}
}

// TestRestoreFallbacks pins the fallback ladder for each snapshot fault
// class: truncation and staleness kill the speculative path outright
// and the sync path recovers; corrupting both images leaves nothing to
// restore and the caller degrades to a from-scratch rerun.
func TestRestoreFallbacks(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Live, wl)
	snap, enc := Capture(d, 9)

	newTech := func() preempt.Technique {
		tech, err := preempt.New(preempt.Live, wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		return tech
	}

	t.Run("truncated", func(t *testing.T) {
		res, err := Restore(nil, enc[:len(enc)/3], enc, 9, newTech(), wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcome.SyncFallback || res.Outcome.SpecError == "" {
			t.Fatalf("outcome %+v, want sync fallback with recorded error", res.Outcome)
		}
		finishRestored(t, res)
		if err := wl.Verify(res.Device); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("stale-epoch", func(t *testing.T) {
		stale := Encode(&Snapshot{Epoch: 8, State: snap.State})
		res, err := Restore(nil, stale, enc, 9, newTech(), wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcome.SyncFallback || !strings.Contains(res.Outcome.SpecError, "stale") {
			t.Fatalf("outcome %+v, want stale-epoch fallback", res.Outcome)
		}
		finishRestored(t, res)
		if err := wl.Verify(res.Device); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("both-corrupt", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[30] ^= 0x40 // control section: both decode paths must reject
		if _, err := Restore(nil, bad, bad, 9, newTech(), wl.Prog); err == nil {
			t.Fatal("restore accepted a doubly-corrupt snapshot")
		}
	})
}

// TestWarmPoolEquivalence: warm and cold restores differ only in the
// reported cost split, never in simulation outcome — the warm-pool
// on/off byte-diff the Makefile snap-diff target automates.
func TestWarmPoolEquivalence(t *testing.T) {
	wl := mustWorkload(t, "MS")
	d, _, _ := parked(t, preempt.CTXBack, wl)
	_, enc := Capture(d, 2)

	run := func(pool *Pool) (*Restored, []uint32) {
		tech, err := preempt.New(preempt.CTXBack, wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Restore(pool, enc, enc, 2, tech, wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		finishRestored(t, res)
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		return res, append([]uint32(nil), res.Device.Mem...)
	}

	pool, err := NewPool(sim.TestConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Warm() != 2 {
		t.Fatalf("pool warm = %d, want 2", pool.Warm())
	}
	warmRes, warmMem := run(pool)
	if pool.Warm() != 1 {
		t.Fatalf("pool warm = %d after one Get, want 1", pool.Warm())
	}
	coldRes, coldMem := run(nil)

	if !warmRes.Outcome.Warm || coldRes.Outcome.Warm {
		t.Fatalf("warm flags: warm=%v cold=%v", warmRes.Outcome.Warm, coldRes.Outcome.Warm)
	}
	if warmRes.Outcome.SetupCycles != 0 {
		t.Fatalf("warm restore charged %d setup cycles", warmRes.Outcome.SetupCycles)
	}
	if coldRes.Outcome.SetupCycles != ColdSetupCycles(sim.TestConfig()) {
		t.Fatalf("cold restore charged %d setup cycles, want %d",
			coldRes.Outcome.SetupCycles, ColdSetupCycles(sim.TestConfig()))
	}
	if warmRes.Outcome.TransferCycles != coldRes.Outcome.TransferCycles {
		t.Fatal("transfer cycles differ between warm and cold")
	}
	if !bytes.Equal(memBytes(warmMem), memBytes(coldMem)) {
		t.Fatal("warm and cold restores produced different memory")
	}
	if warmRes.Device.Now() != coldRes.Device.Now() || warmRes.Device.Stats != coldRes.Device.Stats {
		t.Fatal("warm and cold restores diverged in clock or stats")
	}
}

// TestRestorePoolMismatch: a pool built for a different device model
// must refuse the import cleanly on both paths.
func TestRestorePoolMismatch(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Baseline, wl)
	_, enc := Capture(d, 1)
	tech, err := preempt.New(preempt.Baseline, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}

	big, err := NewPool(sim.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(big, enc, enc, 1, tech, wl.Prog); err == nil ||
		!strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("config-mismatch restore: %v", err)
	}
}

// TestRejectShardWidth: the meta section keeps a shard-width field that
// is always encoded as 1. A checkpoint carrying any other width — even
// with a valid checksum — must be refused with an error by both decode
// paths and by Restore, never imported or panicked on.
func TestRejectShardWidth(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Baseline, wl)
	_, enc := Capture(d, 1)
	tech, err := preempt.New(preempt.Baseline, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}

	// Header (magic, version, epoch) and the meta section's id and length
	// precede the payload, which opens with the device config.
	cfg := artifact.NewWriter()
	putConfig(cfg, d.Cfg)
	const payloadOff = 4 + 2 + 8 + 2 + 4
	widthOff := payloadOff + len(cfg.Data())
	plen := int(binary.LittleEndian.Uint32(enc[payloadOff-4:]))
	if got := binary.LittleEndian.Uint64(enc[widthOff:]); got != 1 {
		t.Fatalf("encoded shard width %d, want 1", got)
	}

	for _, width := range []int64{0, 2, -1} {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(bad[widthOff:], uint64(width))
		binary.LittleEndian.PutUint64(bad[payloadOff+plen:], artifact.Checksum(bad[payloadOff:payloadOff+plen]))
		var ce *CorruptError
		if _, err := Decode(bad); !errors.As(err, &ce) || !strings.Contains(err.Error(), "shard width") {
			t.Errorf("width %d: Decode = %v, want shard-width CorruptError", width, err)
		}
		if _, _, err := DecodeSpeculative(bad); !errors.As(err, &ce) {
			t.Errorf("width %d: DecodeSpeculative = %v, want CorruptError", width, err)
		}
		if _, err := Restore(nil, bad, bad, 1, tech, wl.Prog); err == nil {
			t.Errorf("width %d: Restore accepted the checkpoint", width)
		}
	}
}

// TestSnapshotPrograms: the embedded program images decode back into
// importable programs (the cross-host restore path).
func TestSnapshotPrograms(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Baseline, wl)
	snap, enc := Capture(d, 4)
	progs, err := snap.Programs()
	if err != nil {
		t.Fatal(err)
	}
	tech, err := preempt.New(preempt.Baseline, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Restore(nil, nil, enc, 4, tech, progs...)
	if err != nil {
		t.Fatalf("restore with decoded programs: %v", err)
	}
	finishRestored(t, res)
	if err := wl.Verify(res.Device); err != nil {
		t.Fatal(err)
	}
}
