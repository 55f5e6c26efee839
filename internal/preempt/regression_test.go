package preempt

import (
	"errors"
	"strings"
	"testing"

	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/sim"
)

// The regression corpus (internal/kernels/testdata/regression) pins the
// simulator/technique bugs the generated-corpus differential sweep
// (internal/gen) flushed out. Each test preempts its minimized kernel at
// EVERY cycle of the golden run — strictly more thorough than the
// sweep's sampled signal points — and requires the final memory image to
// be byte-identical to the uninterrupted run.

const regBase = 8192

func regProg(t *testing.T, name string) *isa.Program {
	t.Helper()
	prog, err := kernels.Regression(name)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// preemptEveryCycle runs one full preemption episode at every cycle of
// the golden run and diffs the final device memory.
func preemptEveryCycle(t *testing.T, prog *isa.Program, kind Kind, blocks, wpb int) {
	t.Helper()
	const maxCycles = 10_000_000
	setup := kernels.RegressionSetup(regBase)
	spec := sim.LaunchSpec{Prog: prog, NumBlocks: blocks, WarpsPerBlock: wpb, Setup: setup}

	golden := mustDevice(sim.TestConfig())
	if _, err := golden.Launch(spec); err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(maxCycles); err != nil {
		t.Fatalf("golden: %v", err)
	}

	for signal := int64(1); signal < golden.Now(); signal++ {
		tech, err := New(kind, prog)
		if err != nil {
			t.Fatalf("signal %d: construct %v: %v", signal, kind, err)
		}
		d := mustDevice(sim.TestConfig())
		d.AttachRuntime(tech)
		if _, err := d.Launch(spec); err != nil {
			t.Fatal(err)
		}
		if err := d.RunToCycle(signal, maxCycles); err != nil {
			t.Fatalf("signal %d: %v", signal, err)
		}
		if ep, err := d.Preempt(0, tech); err == nil {
			if err := d.RunUntil(ep.Saved, maxCycles); err != nil {
				t.Fatalf("signal %d %v save: %v", signal, kind, err)
			}
			if err := d.Resume(ep); err != nil {
				t.Fatalf("signal %d %v resume: %v", signal, kind, err)
			}
		} else if !errors.Is(err, sim.ErrDrained) {
			t.Fatalf("signal %d %v preempt: %v", signal, kind, err)
		}
		if err := d.Run(maxCycles); err != nil {
			t.Fatalf("signal %d %v completion: %v", signal, kind, err)
		}
		for i := range golden.Mem {
			if d.Mem[i] != golden.Mem[i] {
				t.Fatalf("signal %d %v: mem[%#x] = %#x, golden %#x",
					signal, kind, i*4, d.Mem[i], golden.Mem[i])
			}
		}
	}
}

// TestRegressionMaskedPartialDef pins the masked-partial-definition
// liveness bug: a vector write under a divergent EXEC mask must not kill
// its destination's liveness when the masked-out lanes remain
// observable. Before the fix LIVE, CKPT, CS-Defer and CTXBack all
// restored poison into the inactive lanes.
func TestRegressionMaskedPartialDef(t *testing.T) {
	prog := regProg(t, "masked-partial-def")
	for _, kind := range ExtendedKinds() {
		preemptEveryCycle(t, prog, kind, 2, 1)
	}
}

// TestRegressionWindowPartialDef pins the flashback-window analyzer bug:
// re-executing an EXEC-masked write merges into its destination, so the
// window plan must provide the destination's prior version.
func TestRegressionWindowPartialDef(t *testing.T) {
	prog := regProg(t, "window-partial-def")
	for _, kind := range ExtendedKinds() {
		preemptEveryCycle(t, prog, kind, 2, 1)
	}
}

// TestRegressionFlushRefusesAliasing pins the SM-flush idempotence bug:
// a kernel whose global load may alias its own store is not restartable
// (the second incarnation observes the first one's writes), and
// SM-flushing must refuse it at construction exactly like it refuses
// atomics. Chimera keeps its flush arm but never selects it for such
// kernels, so it must still complete correctly.
func TestRegressionFlushRefusesAliasing(t *testing.T) {
	prog := regProg(t, "flush-alias")
	if _, err := NewSMFlush(prog); err == nil {
		t.Fatal("SM-flushing must refuse a kernel with an aliasing load/store pair")
	} else if !strings.Contains(err.Error(), "unsound") {
		t.Fatalf("refusal should name the unsoundness, got: %v", err)
	}
	preemptEveryCycle(t, prog, Chimera, 2, 1)
}

// TestRegressionCkptReplayAlias pins the CKPT replay idempotence bug:
// a loop that loads a tile word and later overwrites it (a memory
// anti-dependence) breaks replay when the region between two checkpoints
// contains both — resuming from the last checkpoint re-executes the load
// against memory the dropped incarnation already mutated, so the load
// observes its own future store. CKPT must pin a checkpoint right after
// every global store that may alias a global load. Found by the
// 1000-seed sweep (seed 745); every other technique is swept too since
// anything that re-executes instructions is exposed to the same hazard.
func TestRegressionCkptReplayAlias(t *testing.T) {
	prog := regProg(t, "ckpt-replay-alias")
	for _, kind := range ExtendedKinds() {
		if kind == SMFlush {
			// Refused by construction: the aliasing pair makes the kernel
			// non-restartable (TestRegressionFlushRefusesAliasing).
			if _, err := New(kind, prog); err == nil {
				t.Fatal("SM-flushing must refuse the aliasing kernel")
			}
			continue
		}
		preemptEveryCycle(t, prog, kind, 2, 1)
	}
}

// TestRegressionFlushLaunchFlags pins the SM-flush restart bug for
// condition flags: VCC and SCC launch zeros are observable when some
// path reads the flag before writing it, so the restart must restore
// them rather than leave the resume poison.
func TestRegressionFlushLaunchFlags(t *testing.T) {
	prog := regProg(t, "flush-flags")
	preemptEveryCycle(t, prog, SMFlush, 2, 1)
	preemptEveryCycle(t, prog, Chimera, 2, 1)
}

// TestRegressionFlushLDSLaunchZeros pins the SM-flush restart bug for
// LDS: releasing a preempted SM poisons the share, and a restart that
// reads LDS before writing it must see the launch zeros again.
func TestRegressionFlushLDSLaunchZeros(t *testing.T) {
	prog := regProg(t, "flush-lds")
	preemptEveryCycle(t, prog, SMFlush, 2, 1)
	preemptEveryCycle(t, prog, Chimera, 2, 1)
}

// TestRegressionFlushColdWarp hardens the SM-flush resume path for a
// warp with no entry snapshot: its resume routine must still re-zero
// the vector file so the restart observes the launch contract instead
// of the poison. Under the current pipeline the hook fires before a
// pending preemption signal is honored, so every resident warp gets an
// entry snapshot and this path is only reachable if that ordering ever
// changes — the test pins the earliest-signal restarts (four warps per
// block, signals landing before every warp has issued) so a future
// reordering fails here first rather than in a sweep.
func TestRegressionFlushColdWarp(t *testing.T) {
	prog := regProg(t, "flush-coldwarp")
	preemptEveryCycle(t, prog, SMFlush, 2, 4)
	preemptEveryCycle(t, prog, Chimera, 2, 4)
}

// TestRegressionLDSOrphanShare pins the save-coverage regression: once a
// block peer is Done, the signal widens the victim's LDS coverage over
// the orphaned share, but CKPT and SM-flushing saved LDS at a hook
// before the signal, at the warp's launch-time width. Their resume must
// restore that save into its own slice instead of faulting on a size
// mismatch. Found by the 1000-seed sweep (seed 612); every technique is
// swept since each one saves LDS somewhere.
func TestRegressionLDSOrphanShare(t *testing.T) {
	prog := regProg(t, "ckpt-lds-orphan-share")
	for _, kind := range ExtendedKinds() {
		preemptEveryCycle(t, prog, kind, 1, 2)
	}
}
