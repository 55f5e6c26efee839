package sim

import (
	"reflect"
	"strings"
	"testing"

	"ctxback/internal/isa"
)

// stateObservables is the cross-restore comparison set: the clock and
// every DeviceStats counter. Device.migrations is deliberately absent —
// it is ready-queue cost accounting, reset by a restore (the queue is
// rebuilt), and feeds no simulation result.
type stateObservables struct {
	Now   int64
	Stats DeviceStats
}

func observeState(d *Device) stateObservables {
	return stateObservables{Now: d.now, Stats: d.Stats}
}

// cloneViaState round-trips d through ExportState/ImportState onto a
// fresh device and returns the imported device plus its state index.
// It also checks the contract pieces that every round trip must honor:
// repeat-export determinism and observable preservation.
func cloneViaState(t *testing.T, d *Device, rt Runtime, progs []*isa.Program) (*Device, *StateIndex) {
	t.Helper()
	st, _ := d.ExportState()
	st2, _ := d.ExportState()
	if !reflect.DeepEqual(st, st2) {
		t.Fatal("two exports of the same device differ")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("exported state fails invariants: %v", err)
	}
	fresh := mustNewDevice(d.Cfg)
	idx, err := fresh.ImportState(st, rt, progs)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if got, want := observeState(fresh), observeState(d); got != want {
		t.Fatalf("import perturbed observables: %+v, want %+v", got, want)
	}
	return fresh, idx
}

// stateEpisodeRun drives the oversubscribed barrier workload through a
// full preemption episode, optionally swapping the device for an
// export/import clone at the named cut point. Cuts cover every
// mid-flight shape the snapshot layer must survive: a pending signal
// with barrier-parked victims just released, warps inside their
// preemption routines, a parked (fully saved) episode, and warps inside
// their resume routines.
func stateEpisodeRun(t *testing.T, cut string) ([]stateObservables, Phases, *Device) {
	t.Helper()
	const signal = 1337
	d := oversubscribedDevice(t, 40)
	prog := d.launches[0].Spec.Prog
	progs := []*isa.Program{prog}
	rt := naiveRuntime{}

	var obs []stateObservables
	var ep *Episode
	maybeClone := func(at string) {
		if cut != at {
			return
		}
		clone, idx := cloneViaState(t, d, rt, progs)
		d = clone
		if ep != nil {
			if len(idx.Episodes) == 0 {
				t.Fatalf("cut %q: episode lost in round trip", at)
			}
			ep = idx.Episodes[0]
		}
	}

	if err := d.RunToCycle(signal, 1<<40); err != nil {
		t.Fatalf("to-signal: %v", err)
	}
	maybeClone("at-signal")
	obs = append(obs, observeState(d))

	var err error
	ep, err = d.Preempt(0, rt)
	if err != nil {
		t.Fatalf("preempt: %v", err)
	}
	maybeClone("pending")
	// Step partway into the save so some victims sit mid preemption
	// routine at the cut.
	if err := d.RunToCycle(d.now+60, 1<<40); err != nil {
		t.Fatalf("mid-save run: %v", err)
	}
	maybeClone("mid-save")
	if err := d.RunUntil(ep.Saved, 1<<40); err != nil {
		t.Fatalf("save: %v", err)
	}
	maybeClone("parked")
	obs = append(obs, observeState(d))

	if err := d.Resume(ep); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := d.RunToCycle(d.now+60, 1<<40); err != nil {
		t.Fatalf("mid-resume run: %v", err)
	}
	maybeClone("mid-resume")
	if err := d.RunUntil(ep.Finished, 1<<40); err != nil {
		t.Fatalf("replay: %v", err)
	}
	obs = append(obs, observeState(d))

	if err := d.Run(1 << 40); err != nil {
		t.Fatalf("drain: %v", err)
	}
	obs = append(obs, observeState(d))
	return obs, ep.Phases(), d
}

// TestStateRoundTripCycleExact proves a restored device continues
// cycle-exactly: runs cut at every episode shape produce the same
// boundary observables, phase decomposition, and final memory as the
// undisturbed run.
func TestStateRoundTripCycleExact(t *testing.T) {
	wantObs, wantPhases, wantDev := stateEpisodeRun(t, "none")
	for _, cut := range []string{"at-signal", "pending", "mid-save", "parked", "mid-resume"} {
		gotObs, gotPhases, gotDev := stateEpisodeRun(t, cut)
		for i := range wantObs {
			if gotObs[i] != wantObs[i] {
				t.Errorf("cut=%s stage %d: %+v, want %+v", cut, i, gotObs[i], wantObs[i])
			}
		}
		if gotPhases != wantPhases {
			t.Errorf("cut=%s phases = %+v, want %+v", cut, gotPhases, wantPhases)
		}
		for i := range wantDev.Mem {
			if gotDev.Mem[i] != wantDev.Mem[i] {
				t.Fatalf("cut=%s: Mem[%d] = %#x, want %#x", cut, i, gotDev.Mem[i], wantDev.Mem[i])
			}
		}
	}
}

// TestStateRoundTripBarrierParked pins the barrier-parked-victim shape
// explicitly: the cut lands while a pending episode holds victims that
// were rewound off a barrier, and the restored run still converges.
func TestStateRoundTripBarrierParked(t *testing.T) {
	d := oversubscribedDevice(t, 40)
	prog := d.launches[0].Spec.Prog
	// Let fast warps park at the first barrier.
	if err := d.RunToCycle(400, 1<<40); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	clone, idx := cloneViaState(t, d, naiveRuntime{}, []*isa.Program{prog})
	ep2 := idx.Episodes[0]
	if len(ep2.Victims) != len(ep.Victims) {
		t.Fatalf("victims lost: %d vs %d", len(ep2.Victims), len(ep.Victims))
	}
	finish := func(d *Device, ep *Episode) *Device {
		if err := d.RunUntil(ep.Saved, 1<<40); err != nil {
			t.Fatal(err)
		}
		if err := d.Resume(ep); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(1 << 40); err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := finish(d, ep), finish(clone, ep2)
	if observeState(a) != observeState(b) {
		t.Fatalf("observables diverged: %+v vs %+v", observeState(a), observeState(b))
	}
	for i := range a.Mem {
		if a.Mem[i] != b.Mem[i] {
			t.Fatalf("Mem[%d] diverged", i)
		}
	}
}

// TestExportIsDeepCopy: running the source device to completion must not
// mutate a previously exported state.
func TestExportIsDeepCopy(t *testing.T) {
	d := oversubscribedDevice(t, 10)
	if err := d.RunToCycle(500, 1<<40); err != nil {
		t.Fatal(err)
	}
	st, _ := d.ExportState()
	snap, _ := d.ExportState()
	if err := d.Run(1 << 40); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, snap) {
		t.Fatal("running the source device mutated an exported state")
	}
}

// TestImportRejects exercises every clean-refusal path: non-fresh
// targets, config mismatches, wrong programs, and
// invariant-violating states. Each must error without panicking.
func TestImportRejects(t *testing.T) {
	d := oversubscribedDevice(t, 10)
	if err := d.RunToCycle(300, 1<<40); err != nil {
		t.Fatal(err)
	}
	st, _ := d.ExportState()
	prog := d.launches[0].Spec.Prog
	progs := []*isa.Program{prog}

	expectErr := func(name string, target *Device, st *DeviceState, progs []*isa.Program, frag string) {
		t.Helper()
		_, err := target.ImportState(st, naiveRuntime{}, progs)
		if err == nil {
			t.Fatalf("%s: import unexpectedly succeeded", name)
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("%s: error %q does not mention %q", name, err, frag)
		}
	}

	// Non-fresh target: the source device itself.
	expectErr("non-fresh", d, st, progs, "fresh device")

	// Config mismatch (the -sms case): fewer SMs than the snapshot.
	small := DefaultConfig()
	small.NumSMs = 2
	small.GlobalMemBytes = 1 << 20
	expectErr("config-mismatch", mustNewDevice(small), st, progs, "config mismatch")

	// Wrong program for the fingerprint.
	other := sumKernel(t)
	expectErr("prog-mismatch", mustNewDevice(d.Cfg), st, []*isa.Program{other}, "fingerprint")

	// Wrong program count.
	expectErr("prog-count", mustNewDevice(d.Cfg), st, nil, "programs")

	// Invariant violation: tampered done counter.
	bad, _ := d.ExportState()
	bad.Launches[0].DoneWarps++
	expectErr("invariants", mustNewDevice(d.Cfg), bad, progs, "state invalid")

	// A valid import still works after all the refusals above (they
	// never corrupted shared state).
	if _, err := mustNewDevice(d.Cfg).ImportState(st, naiveRuntime{}, progs); err != nil {
		t.Fatalf("valid import failed after refusals: %v", err)
	}
}

// barrierLoopProgram is a barrier-heavy kernel: two block-wide barriers
// per loop iteration, with LDS traffic crossing each. It maximizes
// park/release churn.
func barrierLoopProgram(tb testing.TB) *isa.Program {
	tb.Helper()
	p, err := isa.Assemble(`
.kernel barrloop
.vregs 8
.sregs 16
.lds 512
  ; s0 = loop count, s1 = out base (bytes)
  v_laneid v0
  v_mov v1, 0
  v_shl v2, v0, 2 !noovf
loop:
  v_add v1, v1, s0
  v_and v1, v1, 0xFFFF
  v_lstore v2, v1, 0
  s_barrier
  v_lload v3, v2, 0
  v_add v1, v1, v3
  s_barrier
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_add v2, v2, s1
  v_gstore v2, v1, 0
  s_endpgm
`)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// oversubscribedDevice launches more barrier-kernel blocks than fit, so
// blocks stay undispatched deep into the run and every endpgm triggers a
// dispatch.
func oversubscribedDevice(tb testing.TB, loops uint64) *Device {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.GlobalMemBytes = 1 << 20
	d := mustNewDevice(cfg)
	prog := barrierLoopProgram(tb)
	_, err := d.Launch(LaunchSpec{
		Prog: prog, NumBlocks: 3 * cfg.NumSMs, WarpsPerBlock: 4,
		Setup: func(w *Warp) {
			w.SRegs[0] = loops
			w.SRegs[1] = uint64(1<<18 + w.ID*isa.WarpSize*4)
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}
