package sched

import (
	"testing"

	"ctxback/internal/preempt"
)

// TestPauseWindowEquivalence: driving the scheduler in small runTo
// windows must be byte-identical to one uninterrupted run — the report
// and the decision log. Every barrier schedule relies on a pause being
// a plain observation point.
func TestPauseWindowEquivalence(t *testing.T) {
	jobs, err := GenTrace(TraceConfig{Seed: 7, NumJobs: 30, NumTenants: 4, MeanGapCycles: 1500})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSchedConfig()
	cfg.Dev.NumSMs = 2
	cfg.Dev.GlobalMemBytes = 256 << 20

	one, err := Run(cfg, preempt.CTXBack, jobs)
	if err != nil {
		t.Fatal(err)
	}

	fs, err := newFleetRun(cfg, preempt.CTXBack, jobs, FailoverConfig{Devices: 1, KillDevice: -1})
	if err != nil {
		t.Fatal(err)
	}
	win := fs.f.devices[0].s
	var stop int64
	for {
		stop += 2000
		done, err := win.runTo(stop)
		if err != nil {
			t.Fatalf("windowed runTo at %d: %v", stop, err)
		}
		if done {
			break
		}
		if stop > 500_000_000 {
			t.Fatal("windowed run never finished")
		}
	}
	// Surface any verification failure the completion hook recorded.
	if err := fs.f.collect(fs.complete); err != nil {
		t.Fatalf("windowed run verify: %v", err)
	}
	got, err := win.result()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) < 2*len(jobs) {
		t.Fatalf("windowed run logged %d events for %d jobs", len(got.Events), len(jobs))
	}
	if g, w := got.Render(), one.Render(); g != w {
		t.Fatalf("windowed report diverged:\n--- windowed\n%s--- single\n%s", g, w)
	}
	if g, w := got.EventLog(), one.EventLog(); g != w {
		t.Fatalf("windowed decision log diverged:\n--- windowed\n%s--- single\n%s", g, w)
	}
}
