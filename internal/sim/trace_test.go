package sim

import (
	"strings"
	"testing"
)

func TestTracerRecordsChronologically(t *testing.T) {
	prog := mustAsm(t, `
.kernel tr
.vregs 4
.sregs 16
  v_mov v0, 1
  v_add v1, v0, 2
  v_gstore v2, v1, 0
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	tr := d.EnableTrace(64)
	if _, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("trace out of order at %d", i)
		}
	}
	if !strings.Contains(evs[0].Text, "v_mov") || evs[0].Mode != ModeKernel {
		t.Errorf("first event = %+v", evs[0])
	}
	out := tr.Render()
	if !strings.Contains(out, "kern") || !strings.Contains(out, "v_gstore") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTracerRingWraps(t *testing.T) {
	prog := mustAsm(t, `
.kernel wrap
.vregs 4
.sregs 16
  s_mov s0, 50
loop:
  v_add v0, v0, 1
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	tr := d.EnableTrace(16)
	if _, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("ring should hold exactly 16 events, got %d", len(evs))
	}
	// The last event must be the endpgm (nothing newer was dropped).
	if !strings.Contains(evs[len(evs)-1].Text, "s_endpgm") {
		t.Errorf("last event = %q", evs[len(evs)-1].Text)
	}
}

func TestTracerSeesPreemptionRoutines(t *testing.T) {
	const loops, warps = 200, 2
	d := mustNewDevice(TestConfig())
	tr := d.EnableTrace(1 << 16)
	launchSum(t, d, loops, warps)
	if err := d.RunUntil(func() bool { return d.Now() > 200 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	var saves, restores int
	for _, ev := range tr.Events() {
		switch ev.Mode {
		case ModePreemptRoutine:
			saves++
		case ModeResumeRoutine:
			restores++
		}
	}
	if saves == 0 || restores == 0 {
		t.Errorf("saves=%d restores=%d; routine execution must be visible", saves, restores)
	}
}
