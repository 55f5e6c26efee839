package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ctxback/internal/faults"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

func quickChaosOptions() ChaosOptions {
	co := DefaultChaosOptions()
	co.Rates = []float64{0.15}
	return co
}

// TestChaosNoSilentWrong is the tentpole acceptance check: a full sweep
// over every kernel and technique at a fixed seed must show every
// injected corruption detected or recovered — zero episodes where wrong
// output escapes without in-band detection, and zero episodes the
// BASELINE fallback cannot complete.
func TestChaosNoSilentWrong(t *testing.T) {
	r := NewRunner(QuickOptions())
	rep, err := r.Chaos(quickChaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.SilentWrong(); n != 0 {
		for _, c := range rep.Cells {
			if c.Outcome == ChaosSilentWrong {
				t.Errorf("silent wrong output: %s/%v mode=%s rate=%.2f", c.Kernel, c.Kind, c.Mode, c.Rate)
			}
		}
		t.Fatalf("%d silent-wrong episodes", n)
	}
	if n := rep.Unrecoverable(); n != 0 {
		t.Fatalf("%d unrecoverable episodes (BASELINE fallback must always complete)", n)
	}
	total := 0
	for _, n := range rep.Counts {
		total += n
	}
	if total == 0 {
		t.Fatal("sweep produced no classified episodes")
	}
	if rep.Counts[ChaosRecovered]+rep.Counts[ChaosFallback] == 0 {
		t.Error("no episode exercised recovery or fallback; raise the rate")
	}
	out := RenderChaos(rep)
	if !strings.Contains(out, "0 silent-wrong") {
		t.Errorf("render disagrees with counts:\n%s", out)
	}
}

// TestChaosDeterministicAcrossWorkers re-runs the same seed at worker
// counts 1 and 4: the classified report must be identical.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	co := quickChaosOptions()
	co.Rates = []float64{0.2}
	var reports []*ChaosReport
	for _, procs := range []int{1, 4} {
		o := QuickOptions()
		o.Parallelism = procs
		rep, err := NewRunner(o).Chaos(co)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	a, b := reports[0], reports[1]
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("cell %d differs:\n serial: %+v\nworkers: %+v", i, a.Cells[i], b.Cells[i])
		}
	}
}

// TestChaosForcedFallbackEndToEnd forces a CTXBack validation failure
// (context corruption at 100% rate, caught by the save-time checksum)
// and checks the degradation path end to end: the detection is an
// IntegrityError, the episode re-runs through BASELINE, and the final
// device memory matches the uninterrupted golden run exactly.
func TestChaosForcedFallbackEndToEnd(t *testing.T) {
	o := QuickOptions()
	wl, err := kernels.ByAbbrev("VA", o.Params)
	if err != nil {
		t.Fatal(err)
	}

	// Golden run for the byte-exact memory diff.
	golden, err := sim.NewDevice(o.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Launch(golden); err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(o.MaxCycles); err != nil {
		t.Fatal(err)
	}
	signal := golden.Now() / 2

	// CTXBack episode with every saved context corrupted.
	tech, err := preempt.NewCTXBack(wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.NewDevice(o.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InjectFaults(faults.Config{Seed: 42, CorruptRate: 1}); err != nil {
		t.Fatal(err)
	}
	d.AttachRuntime(tech)
	wl2, err := kernels.ByAbbrev("VA", o.Params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl2.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(func() bool { return d.Now() >= signal }, o.MaxCycles); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, tech)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(ep.Saved, o.MaxCycles); err != nil {
		t.Fatal(err)
	}
	resumeErr := d.Resume(ep)
	if resumeErr == nil {
		resumeErr = d.RunUntil(ep.Finished, o.MaxCycles)
	}
	var integ *sim.IntegrityError
	if !errors.As(resumeErr, &integ) {
		t.Fatalf("forced corruption not detected in-band (err = %v)", resumeErr)
	}

	// Degrade: abandon the device, re-run the episode through BASELINE
	// fault-free, and require byte-identical final memory.
	base, err := preempt.NewBaseline(wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := sim.NewDevice(o.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	fb.AttachRuntime(base)
	wl3, err := kernels.ByAbbrev("VA", o.Params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl3.Launch(fb); err != nil {
		t.Fatal(err)
	}
	if err := fb.RunUntil(func() bool { return fb.Now() >= signal }, o.MaxCycles); err != nil {
		t.Fatal(err)
	}
	ep2, err := fb.Preempt(0, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.RunUntil(ep2.Saved, o.MaxCycles); err != nil {
		t.Fatal(err)
	}
	if err := fb.Resume(ep2); err != nil {
		t.Fatal(err)
	}
	if err := fb.Run(o.MaxCycles); err != nil {
		t.Fatal(err)
	}
	if err := wl3.Verify(fb); err != nil {
		t.Fatalf("fallback output failed CPU verification: %v", err)
	}
	for i := range golden.Mem {
		if golden.Mem[i] != fb.Mem[i] {
			t.Fatalf("fallback mem[%d] = %d, golden %d", i, fb.Mem[i], golden.Mem[i])
		}
	}
}

// TestChaosSnapshotMode sweeps only the snapshot-corruption cells at a
// rate high enough that every fault class fires somewhere: zero
// silent-wrong, zero unrecoverable, and at least one cell recovered
// in-episode through the authoritative image.
func TestChaosSnapshotMode(t *testing.T) {
	co := DefaultChaosOptions()
	co.Rates = []float64{0.6}
	co.Kinds = nil
	co.OracleKinds = nil
	rep, err := NewRunner(QuickOptions()).Chaos(co)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Mode != "snapshot" {
			t.Fatalf("unexpected mode %q in snapshot-only sweep", c.Mode)
		}
		if c.Outcome == ChaosSilentWrong || c.Outcome == ChaosUnrecoverable {
			t.Errorf("%s/%v snapfault=%s: outcome %v (detected: %s)",
				c.Kernel, c.Kind, c.SnapFault, c.Outcome, c.Detected)
		}
		if c.SnapFault == "none" && !c.Skipped && c.Outcome != ChaosClean {
			t.Errorf("%s/%v: no fault drawn but outcome %v", c.Kernel, c.Kind, c.Outcome)
		}
		if c.SnapFault != "none" && c.SnapFault != "" && !c.Skipped && c.Outcome != ChaosRecovered {
			t.Errorf("%s/%v snapfault=%s: want recovered, got %v", c.Kernel, c.Kind, c.SnapFault, c.Outcome)
		}
	}
	if rep.Counts[ChaosRecovered] == 0 {
		t.Error("no snapshot fault recovered; raise the rate")
	}
	fired := map[string]bool{}
	for _, c := range rep.Cells {
		fired[c.SnapFault] = true
	}
	for _, class := range []string{"truncated", "bit-flip", "stale-epoch"} {
		if !fired[class] {
			t.Errorf("fault class %s never drawn across the sweep", class)
		}
	}
}

// TestOracleExactOnCleanEpisodes pins the resume-integrity oracle's
// liveness-exact rule. CTXBack leaves dead values and masked-out lanes
// that are never observed again unrestored, so fault-free CTXBack and
// CTXBack+CS-Defer episodes, whose output verifies, must raise no
// IntegrityError. An oracle that compares every lane of every live-in
// register flags all four (HS CTXBack @0.5 reports v11[32] =
// 0xdeadbeef, a lane masked out at the signal).
func TestOracleExactOnCleanEpisodes(t *testing.T) {
	o := QuickOptions()
	for _, c := range []struct {
		factory kernels.Factory
		frac    float64
	}{{kernels.NewHS, 0.5}, {kernels.NewDOT, 0.7}} {
		p, err := o.prepare(c.factory)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewOracle(p.wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []preempt.Kind{preempt.CTXBack, preempt.Combined} {
			e := Episode{Cfg: o.Cfg, MaxCycles: o.MaxCycles, Workload: p.wl, Kind: kind,
				Signal: int64(c.frac * float64(p.goldenCycles)), Oracle: oracle, Complete: true}
			run, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s %v @%.1f", p.wl.Abbrev, kind, c.frac)
			switch {
			case run.Drained:
				t.Errorf("%s: drained; the case preempts nothing", name)
			case run.Detected != nil:
				t.Errorf("%s: false detection on a fault-free episode: %v", name, run.Detected)
			case run.VerifyErr != nil:
				t.Errorf("%s: output does not verify: %v", name, run.VerifyErr)
			}
		}
	}
}
