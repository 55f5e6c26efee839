package sched

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ctxback/internal/preempt"
)

func fleetTrace(t *testing.T, seed int64, jobs int) []Job {
	t.Helper()
	tr, err := GenTrace(TraceConfig{Seed: seed, NumJobs: jobs, NumTenants: 3, MeanGapCycles: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runFleet(t *testing.T, kind preempt.Kind, jobs []Job, fo FailoverConfig) *FleetResult {
	t.Helper()
	fr, err := RunFleet(testSchedConfig(), kind, jobs, fo)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Jobs) != len(jobs) {
		t.Fatalf("fleet finished %d jobs, want %d", len(fr.Jobs), len(jobs))
	}
	return fr
}

// TestFleetUndisturbedMatchesSingle sanity-checks the fleet plumbing:
// with no kill, every job completes, digests are populated, and repeats
// are bit-identical.
func TestFleetUndisturbedMatchesSingle(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	fo := FailoverConfig{Devices: 2, CheckpointEvery: 50_000, KillDevice: -1}
	a := runFleet(t, preempt.CTXBack, jobs, fo)
	b := runFleet(t, preempt.CTXBack, jobs, fo)
	if a.StateHash() != b.StateHash() {
		t.Fatalf("state hashes differ between identical runs:\n--- a\n%s--- b\n%s", a.StateHash(), b.StateHash())
	}
	if a.Render() != b.Render() {
		t.Fatal("rendered fleet reports differ between identical runs")
	}
	if a.Checkpoints == 0 {
		t.Fatal("no checkpoints taken on a 50k cadence")
	}
	for _, j := range a.Jobs {
		if j.Digest == 0 {
			t.Errorf("job %d has empty slab digest", j.ID)
		}
		if j.Complete <= j.Arrival {
			t.Errorf("job %d complete %d <= arrival %d", j.ID, j.Complete, j.Arrival)
		}
	}
}

// TestFleetCrashAtEveryBoundary is the equivalence test the issue asks
// for: kill a device at EVERY checkpoint boundary (and between two of
// them) and require the failover run's final memory and verify state —
// the per-job slab digests, with Verify on throughout — to be
// byte-identical to the undisturbed run's.
func TestFleetCrashAtEveryBoundary(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	const every = 40_000
	base := runFleet(t, preempt.CTXBack, jobs, FailoverConfig{
		Devices: 2, CheckpointEvery: every, KillDevice: -1})
	want := base.StateHash()

	var boundaries []int64
	for c := int64(every); c <= base.Makespan; c += every {
		boundaries = append(boundaries, c)
	}
	if len(boundaries) < 2 {
		t.Fatalf("makespan %d yields %d boundaries; need >= 2 for the sweep", base.Makespan, len(boundaries))
	}
	// Also crash between boundaries: mid-window kills roll back to the
	// previous checkpoint instead of resuming at the crash instant.
	boundaries = append(boundaries, boundaries[0]+every/2)

	for _, kill := range boundaries {
		for kd := 0; kd < 2; kd++ {
			fr := runFleet(t, preempt.CTXBack, jobs, FailoverConfig{
				Devices: 2, CheckpointEvery: every, KillDevice: kd, KillCycle: kill})
			if got := fr.StateHash(); got != want {
				t.Fatalf("kill dev %d @ %d: final state diverged from undisturbed run:\n--- got\n%s--- want\n%s",
					kd, kill, got, want)
			}
			var killed, recovered bool
			for _, e := range fr.Decisions {
				switch e.What {
				case "kill":
					killed = true
				case "restore-warm", "restore-cold", "rerun", "readmit":
					recovered = true
				}
			}
			if !killed {
				t.Fatalf("kill dev %d @ %d: decision log has no kill event", kd, kill)
			}
			if !recovered && killDeviceHadWork(base, kd) {
				t.Fatalf("kill dev %d @ %d: no recovery decision logged:\n%s", kd, kill, fr.Render())
			}
		}
	}
}

// killDeviceHadWork reports whether the undisturbed run placed any job
// on device kd (a kill of an empty device needs no recovery moves).
func killDeviceHadWork(base *FleetResult, kd int) bool {
	for _, j := range base.Jobs {
		if j.Device == kd {
			return true
		}
	}
	return false
}

// TestFleetWarmVsColdRestore pins the warm-pool split: a warm restore
// skips the cold construction cycles but is otherwise byte-identical to
// a cold one.
func TestFleetWarmVsColdRestore(t *testing.T) {
	jobs := fleetTrace(t, 47, 6)
	fo := FailoverConfig{Devices: 2, CheckpointEvery: 40_000, KillDevice: 0, KillCycle: 80_000}
	cold := runFleet(t, preempt.CTXBack, jobs, fo)
	fo.WarmPool = 1
	warm := runFleet(t, preempt.CTXBack, jobs, fo)

	if cold.Restore == nil || warm.Restore == nil {
		t.Skip("kill landed after device 0 finished; no restore to compare")
	}
	if cold.Restore.Warm {
		t.Error("pool-less restore reported warm")
	}
	if !warm.Restore.Warm {
		t.Error("pooled restore reported cold")
	}
	if cold.Restore.SetupCycles == 0 {
		t.Error("cold restore charged no setup cycles")
	}
	if warm.Restore.SetupCycles != 0 {
		t.Errorf("warm restore charged %d setup cycles, want 0", warm.Restore.SetupCycles)
	}
	if cold.Restore.TransferCycles != warm.Restore.TransferCycles {
		t.Errorf("transfer cycles differ warm vs cold: %d vs %d",
			warm.Restore.TransferCycles, cold.Restore.TransferCycles)
	}
	if warm.StateHash() != cold.StateHash() {
		t.Fatalf("warm and cold restores diverged:\n--- warm\n%s--- cold\n%s",
			warm.StateHash(), cold.StateHash())
	}
	if !reflect.DeepEqual(warm.Jobs, cold.Jobs) {
		t.Fatal("per-job stats differ between warm and cold restore")
	}
}

// TestFleetRerunPath covers the non-relocatable fallback: CKPT episodes
// do not survive a snapshot trip, so the kill must trigger a
// deterministic re-run, and the final state must still match the
// undisturbed run.
func TestFleetRerunPath(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	base := runFleet(t, preempt.Ckpt, jobs, FailoverConfig{
		Devices: 2, CheckpointEvery: 40_000, KillDevice: -1})
	fr := runFleet(t, preempt.Ckpt, jobs, FailoverConfig{
		Devices: 2, CheckpointEvery: 40_000, KillDevice: 0, KillCycle: 80_000})
	if got, want := fr.StateHash(), base.StateHash(); got != want {
		t.Fatalf("rerun failover diverged from undisturbed run:\n--- got\n%s--- want\n%s", got, want)
	}
	if fr.Restore != nil {
		t.Error("non-relocatable kind restored from a checkpoint")
	}
	if killDeviceHadWork(base, 0) && !strings.Contains(fr.Render(), "rerun") {
		t.Fatalf("decision log has no rerun event:\n%s", fr.Render())
	}
}

// TestFleetNoCheckpointFallsBackToRerun kills a device before any
// checkpoint exists: even a relocatable technique has nothing to restore
// and must re-run.
func TestFleetNoCheckpointFallsBackToRerun(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	base := runFleet(t, preempt.CTXBack, jobs, FailoverConfig{
		Devices: 2, KillDevice: -1})
	fr := runFleet(t, preempt.CTXBack, jobs, FailoverConfig{
		Devices: 2, KillDevice: 0, KillCycle: 10_000})
	if got, want := fr.StateHash(), base.StateHash(); got != want {
		t.Fatalf("checkpoint-less failover diverged:\n--- got\n%s--- want\n%s", got, want)
	}
	if fr.Restore != nil {
		t.Error("restore reported without any checkpoint")
	}
	if fr.Checkpoints != 0 {
		t.Errorf("checkpointing disabled but %d checkpoints taken", fr.Checkpoints)
	}
}

// TestFleetConfigValidation covers the flag-level error paths.
func TestFleetConfigValidation(t *testing.T) {
	jobs := fleetTrace(t, 31, 4)
	cases := []FailoverConfig{
		{Devices: 2, KillDevice: 2, KillCycle: 1000},      // kill id out of range
		{Devices: 2, KillDevice: 0},                       // kill cycle unset
		{Devices: 2, KillDevice: 0, KillCycle: -5},        // negative kill cycle
		{Devices: 2, CheckpointEvery: -1, KillDevice: -1}, // negative cadence
	}
	for i, fo := range cases {
		if _, err := RunFleet(testSchedConfig(), preempt.CTXBack, jobs, fo); err == nil {
			t.Errorf("case %d: invalid failover config accepted", i)
		}
	}
	if _, err := RunFleet(testSchedConfig(), preempt.CTXBack, nil,
		FailoverConfig{Devices: 2, KillDevice: -1}); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestLeastLoadedReadmit pins the one routing policy every driver uses
// (failover readmission, serve admission, the migration destination):
// the device with the fewest outstanding jobs, ties to the lower id,
// restricted to the eligible set, and each pick sees the previous one's
// load. Retired devices are never picked.
func TestLeastLoadedReadmit(t *testing.T) {
	f := &fleet{}
	mk := func(total, done int) *device {
		s := &scheduler{nDone: done}
		for i := 0; i < total; i++ {
			s.jobs = append(s.jobs, &runJob{})
		}
		dev := &device{id: len(f.devices), s: s}
		f.devices = append(f.devices, dev)
		return dev
	}
	mk(5, 0)
	one := mk(3, 3)
	mk(4, 2)
	all := func(*device) bool { return true }
	if got := f.route(all); got.id != 1 {
		t.Fatalf("route = %d, want 1 (zero outstanding)", got.id)
	}
	// Device 1 takes the orphan and, at 1 outstanding, stays lightest.
	one.s.jobs = append(one.s.jobs, &runJob{})
	if got := f.route(all); got.id != 1 {
		t.Fatalf("after one readmit route = %d, want 1", got.id)
	}
	one.s.jobs = append(one.s.jobs, &runJob{})
	// Device 1 and 2 both at 2 outstanding: the tie goes to the lower id.
	if got := f.route(all); got.id != 1 {
		t.Fatalf("tie route = %d, want 1 (lower id)", got.id)
	}
	// Restrict the targets: only 0 and 2 are eligible.
	if got := f.route(func(d *device) bool { return d.id != 1 }); got.id != 2 {
		t.Fatalf("restricted route = %d, want 2", got.id)
	}
	// A retired device is out of every target set.
	f.devices[2].s = nil
	if got := f.route(func(d *device) bool { return d.id != 1 }); got.id != 0 {
		t.Fatalf("route with device 2 retired = %d, want 0", got.id)
	}
	if got := f.route(func(d *device) bool { return d.id == 2 }); got != nil {
		t.Fatalf("route over only a retired device = %d, want none", got.id)
	}
}

// TestRunEqualsOneDeviceFleet pins the single-driver invariant: Run is
// the fleet schedule on one device with no barriers, so on the head of
// the sched-smoke trace (a preemption included) every technique's
// per-job start, completion and preemption counts and the makespan
// match RunFleet with one device and no kill.
func TestRunEqualsOneDeviceFleet(t *testing.T) {
	cfg := testSchedConfig()
	cfg.Dev.NumSMs = 1
	jobs, err := GenTrace(TraceConfig{Seed: 9, NumJobs: 3, NumTenants: 3, MaxPriority: 3, MeanGapCycles: 3000})
	if err != nil {
		t.Fatal(err)
	}
	var preemptions int64
	for _, kind := range preempt.ExtendedKinds() {
		r, err := Run(cfg, kind, jobs)
		if err != nil {
			t.Fatalf("%v: Run: %v", kind, err)
		}
		preemptions += r.TotalPreemptions
		fr, err := RunFleet(cfg, kind, jobs, FailoverConfig{Devices: 1, KillDevice: -1})
		if err != nil {
			t.Fatalf("%v: RunFleet: %v", kind, err)
		}
		if r.Makespan != fr.Makespan || r.TotalPreemptions != fr.TotalPreemptions {
			t.Errorf("%v: makespan/preemptions %d/%d vs fleet %d/%d",
				kind, r.Makespan, r.TotalPreemptions, fr.Makespan, fr.TotalPreemptions)
		}
		if len(r.Jobs) != len(fr.Jobs) {
			t.Fatalf("%v: %d jobs vs fleet %d", kind, len(r.Jobs), len(fr.Jobs))
		}
		for i := range r.Jobs {
			if r.Jobs[i] != fr.Jobs[i].JobStats {
				t.Errorf("%v: job %+v vs fleet %+v", kind, r.Jobs[i], fr.Jobs[i].JobStats)
			}
		}
	}
	if preemptions == 0 {
		t.Fatal("no technique preempted: the trace no longer exercises a context switch")
	}
}

// TestSlabTooSmallRefused pins the footprint check: a kernel whose
// buffers span more than its slab is refused before anything simulates,
// with an error naming the job, kernel, span and slab. Before the check
// the 48-job single device and the 32-job fleet at seed 1 faulted past
// the end of device memory, and the fleet at seed 9 completed although
// an oversized kernel silently overwrote its neighbour's slab.
func TestSlabTooSmallRefused(t *testing.T) {
	cfg := testSchedConfig()
	cfg.Dev.NumSMs = 1
	fo := FailoverConfig{Devices: 2, CheckpointEvery: 20_000, KillDevice: 0, KillCycle: 200_000, WarmPool: 1}
	wantErr := regexp.MustCompile(`job \d+ \(\w+\) spans \d+ bytes of device memory, more than its \d+-byte slab`)
	for _, tc := range []struct {
		name  string
		seed  int64
		jobs  int
		fleet bool
	}{
		{"run-48", 9, 48, false},
		{"fleet-32-seed1", 1, 32, true},
		{"fleet-32-seed9", 9, 32, true},
	} {
		jobs, err := GenTrace(TraceConfig{Seed: tc.seed, NumJobs: tc.jobs, NumTenants: 3, MaxPriority: 3, MeanGapCycles: 3000})
		if err != nil {
			t.Fatal(err)
		}
		if tc.fleet {
			_, err = RunFleet(cfg, preempt.CTXBack, jobs, fo)
		} else {
			_, err = Run(cfg, preempt.CTXBack, jobs)
		}
		if err == nil || !wantErr.MatchString(err.Error()) {
			t.Errorf("%s: err = %v, want the slab-footprint refusal", tc.name, err)
		}
	}
	// Serve's slab pool is held to the same bound, checked up front.
	sc := testSchedConfig()
	sc.SlabBytes = 64 << 10
	_, err := Serve(ServeConfig{Sched: sc, SlabsPerDevice: 4}, preempt.CTXBack, fleetTrace(t, 31, 4))
	if err == nil || !wantErr.MatchString(err.Error()) {
		t.Errorf("serve: err = %v, want the slab-footprint refusal", err)
	}
}
