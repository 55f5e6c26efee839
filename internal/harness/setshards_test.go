package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// shimRun is one device driven in lockstep with its twin: the same
// workload, technique and episode orchestration. The twins differ only in
// whether (*sim.Device).SetShards was called, so any divergence means the
// benchmark shim leaked into simulated behaviour.
type shimRun struct {
	label  string
	wl     *kernels.Workload
	d      *sim.Device
	tech   preempt.Technique
	launch *sim.Launch
	ep     *sim.Episode
}

func newShimRun(t *testing.T, cfg sim.Config, abbrev string, kind preempt.Kind, label string, setShards bool) *shimRun {
	t.Helper()
	wl, err := kernels.ByAbbrev(abbrev, kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setShards {
		d.SetShards(4)
	}
	tech, err := preempt.New(kind, wl.Prog)
	if err != nil {
		t.Skipf("technique unavailable: %v", err)
	}
	d.AttachRuntime(tech)
	launch, err := wl.Launch(d)
	if err != nil {
		t.Fatal(err)
	}
	return &shimRun{label: label, wl: wl, d: d, tech: tech, launch: launch}
}

// checkAligned asserts the two devices agree on every cheap observable
// at a phase boundary.
func checkAligned(t *testing.T, phase string, ser, shr *shimRun) {
	t.Helper()
	if a, b := ser.d.Now(), shr.d.Now(); a != b {
		t.Fatalf("%s: clocks diverged: plain=%d shim=%d", phase, a, b)
	}
	if ser.d.Stats != shr.d.Stats {
		t.Fatalf("%s: device stats diverged:\n  plain: %+v\n  shim:  %+v", phase, ser.d.Stats, shr.d.Stats)
	}
	if a, b := ser.launch.Done(), shr.launch.Done(); a != b {
		t.Fatalf("%s: launch completion diverged: plain=%v shim=%v", phase, a, b)
	}
}

// TestShardedMatchesSerialEpisodes pins the SetShards benchmark shim as a
// true no-op across the full evaluation matrix: every Table I kernel under
// every preemption technique runs a complete preemption episode (signal at
// a seeded-random cycle, save, resume, replay, completion) on two devices,
// one of which was asked for 4 shards, and the clock, device stats,
// episode phase split, preemption latency, saved bytes, final memory image
// and verified output must match exactly at every phase boundary.
func TestShardedMatchesSerialEpisodes(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	cfg := sim.TestConfig()
	cfg.NumSMs = 4
	wls, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260808))
	for _, wl := range wls {
		for _, kind := range preempt.ExtendedKinds() {
			signal := 1 + rng.Int63n(3000)
			t.Run(fmt.Sprintf("%s/%s", wl.Abbrev, kind), func(t *testing.T) {
				diffShimEpisode(t, cfg, wl.Abbrev, kind, signal)
			})
		}
	}
}

func diffShimEpisode(t *testing.T, cfg sim.Config, abbrev string, kind preempt.Kind, signal int64) {
	t.Helper()
	const maxCycles = 1 << 40
	ser := newShimRun(t, cfg, abbrev, kind, "plain", false)
	shr := newShimRun(t, cfg, abbrev, kind, "shim", true)

	// Phase 1: run to the preemption signal.
	for _, r := range []*shimRun{ser, shr} {
		if err := r.d.RunToCycle(signal, maxCycles); err != nil {
			t.Fatalf("to-signal (%s): %v", r.label, err)
		}
	}
	checkAligned(t, "to-signal", ser, shr)

	if !ser.launch.Done() {
		// Phase 2: preempt SM 0 on both; the drained race must resolve
		// identically.
		epS, errS := ser.d.Preempt(0, ser.tech)
		epP, errP := shr.d.Preempt(0, shr.tech)
		if (errS == nil) != (errP == nil) ||
			(errS != nil && errors.Is(errS, sim.ErrDrained) != errors.Is(errP, sim.ErrDrained)) {
			t.Fatalf("Preempt outcome diverged: plain=%v shim=%v", errS, errP)
		}
		if errS == nil {
			ser.ep, shr.ep = epS, epP
			if a, b := len(epS.Victims), len(epP.Victims); a != b {
				t.Fatalf("victim counts diverged: plain=%d shim=%d", a, b)
			}
			for _, r := range []*shimRun{ser, shr} {
				if err := r.d.RunUntil(r.ep.Saved, maxCycles); err != nil {
					t.Fatalf("save (%s): %v", r.label, err)
				}
			}
			checkAligned(t, "save", ser, shr)
			for _, r := range []*shimRun{ser, shr} {
				if err := r.d.Resume(r.ep); err != nil {
					t.Fatalf("Resume (%s): %v", r.label, err)
				}
				if err := r.d.RunUntil(r.ep.Finished, maxCycles); err != nil {
					t.Fatalf("resume (%s): %v", r.label, err)
				}
			}
			checkAligned(t, "resume", ser, shr)
			if a, b := epS.Phases(), epP.Phases(); a != b {
				t.Fatalf("episode phases diverged:\n  plain: %+v\n  shim:  %+v", a, b)
			}
			if a, b := epS.PreemptLatencyCycles(), epP.PreemptLatencyCycles(); a != b {
				t.Fatalf("preempt latency diverged: plain=%d shim=%d", a, b)
			}
			if a, b := epS.SavedBytes(), epP.SavedBytes(); a != b {
				t.Fatalf("saved bytes diverged: plain=%d shim=%d", a, b)
			}
		}
	}

	// Phase 3: run to completion.
	for _, r := range []*shimRun{ser, shr} {
		if err := r.d.Run(maxCycles); err != nil {
			t.Fatalf("completion (%s): %v", r.label, err)
		}
	}
	checkAligned(t, "completion", ser, shr)

	// Final state: identical memory image and verified output.
	for i := range ser.d.Mem {
		if ser.d.Mem[i] != shr.d.Mem[i] {
			t.Fatalf("device memory diverged at word %d: plain=%#x shim=%#x", i, ser.d.Mem[i], shr.d.Mem[i])
		}
	}
	if err := ser.wl.Verify(ser.d); err != nil {
		t.Fatalf("plain output failed verification: %v", err)
	}
	if err := shr.wl.Verify(shr.d); err != nil {
		t.Fatalf("shim output failed verification: %v", err)
	}
}
