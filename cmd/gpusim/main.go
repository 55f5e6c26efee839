// Command gpusim runs a Table-I benchmark on the GPU simulator, with an
// optional mid-run preemption under a chosen technique, and verifies the
// output against the CPU golden reference.
//
// Usage:
//
//	gpusim -kernel KM                         # plain run
//	gpusim -kernel KM -technique CTXBack -at 0.5
//	gpusim -kernel KM -technique CTXBack -trace km.trace.json
//	gpusim -kernel KM -technique CTXBack -faults 0.05 -fault-seed 1
//	gpusim -kernel KM -technique CTXBack -checkpoint
//
// With -checkpoint the parked episode is checkpointed with the WHOLE
// device (internal/snapshot), the original device is discarded, and the
// run finishes on a device restored from the snapshot bytes via the
// speculative path — the deferred validation settles after replay, and
// the output must still verify against the CPU reference.
//
// With -trace FILE the preempted run records structured episode, warp
// and memory-pipeline events and writes them as Chrome trace-event JSON:
// open the file in chrome://tracing or https://ui.perfetto.dev to see
// the preemption timeline (one process per SM, one thread per warp,
// timestamps in simulated cycles).
package main

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"ctxback/internal/artifact"
	"ctxback/internal/faults"
	"ctxback/internal/harness"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
	"ctxback/internal/trace"
)

func main() {
	var (
		kernel    = flag.String("kernel", "VA", "benchmark abbreviation")
		techStr   = flag.String("technique", "", "preemption technique (BASELINE, LIVE, CKPT, CS-Defer, CTXBack, CTXBack+CS-Defer)")
		at        = flag.Float64("at", 0.5, "preemption point as a fraction of the uninterrupted runtime")
		blocks    = flag.Int("blocks", 8, "thread blocks")
		warps     = flag.Int("warps", 2, "warps per block")
		iters     = flag.Int("iters", 16, "main-loop iterations per warp")
		tracePath = flag.String("trace", "", "write the preempted run's episode timeline as Chrome trace-event JSON to this file (chrome://tracing)")
		tailN     = flag.Int("tail", 0, "print the last N executed instructions of the preempted run")
		procs     = flag.Int("procs", 0, "cap GOMAXPROCS (0 = leave at the runtime default)")
		faultRate = flag.Float64("faults", 0, "fault-injection rate in [0,1] for the preempted run (0 = off)")
		faultSeed = flag.Uint64("fault-seed", 1, "fault-injection seed")
		ckpt      = flag.Bool("checkpoint", false, "checkpoint the whole device at the parked episode and finish the run on a device restored from the snapshot bytes")
		cache     = flag.String("cache-dir", "", "persistent content-addressed artifact cache shared across runs and processes (empty = disabled)")
	)
	flag.Parse()

	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gpusim: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *procs < 0 {
		usageErr("-procs must be >= 0, got %d", *procs)
	}
	if math.IsNaN(*faultRate) || *faultRate < 0 || *faultRate > 1 {
		usageErr("-faults must be a rate in [0,1], got %v", *faultRate)
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		os.Exit(1)
	}
	if *cache != "" {
		st, err := artifact.Open(*cache)
		if err != nil {
			fail(err)
		}
		artifact.SetDefault(st)
	}

	params := kernels.Params{NumBlocks: *blocks, WarpsPerBlock: *warps, ItersPerWarp: *iters, Seed: 7}
	wl, err := kernels.ByAbbrev(strings.ToUpper(*kernel), params)
	if err != nil {
		fail(err)
	}
	cfg := sim.DefaultConfig()

	// Golden run.
	golden, err := sim.NewDevice(cfg)
	if err != nil {
		fail(err)
	}
	if _, err := wl.Launch(golden); err != nil {
		fail(err)
	}
	if err := golden.Run(1 << 40); err != nil {
		fail(err)
	}
	if err := wl.Verify(golden); err != nil {
		fail(fmt.Errorf("golden run failed verification: %w", err))
	}
	fmt.Printf("%s: %d warps, %d instructions, %d cycles (%.1f us) — output verified\n",
		wl.FullName, wl.TotalWarps(), golden.Stats.KernelInstrs, golden.Now(), golden.Micros())

	if *techStr == "" {
		return
	}
	var kind preempt.Kind
	found := false
	for _, k := range preempt.Kinds() {
		if strings.EqualFold(k.String(), *techStr) {
			kind, found = k, true
		}
	}
	if !found {
		fail(fmt.Errorf("unknown technique %q", *techStr))
	}
	if *ckpt && !preempt.Relocatable(kind) {
		fail(fmt.Errorf("%v episodes do not survive a snapshot trip (technique state is device-resident); pick a relocatable technique", kind))
	}
	if *ckpt && (*tracePath != "" || *tailN > 0) {
		usageErr("-checkpoint discards the original device; -trace and -tail cannot follow it")
	}

	signal := int64(*at * float64(golden.Now()))
	var faultCfg *faults.Config
	if *faultRate > 0 {
		fc := faults.Preset(*faultSeed, *faultRate)
		faultCfg = &fc
	}

	// Preempted run, possibly under fault injection. A fault detected
	// in-band (harness.DetectedFault) degrades gracefully: the episode
	// re-runs fault-free through the BASELINE technique.
	detected, err := runPreempted(cfg, wl, kind, signal, faultCfg, *tailN, *tracePath, *ckpt)
	if err != nil {
		fail(err)
	}
	if detected == nil {
		return
	}
	fmt.Printf("fault detected in-band: %v\n", detected)
	fmt.Println("degrading: re-running the episode fault-free through BASELINE")
	if detected, err := runPreempted(cfg, wl, preempt.Baseline, signal, nil, 0, "", false); err != nil || detected != nil {
		fail(fmt.Errorf("BASELINE fallback failed: %w", cmp.Or(err, detected)))
	}
}

// runPreempted runs one preemption episode end to end through the
// harness episode driver, printing its walk-through, and verifies the
// final output against the CPU reference. detected is an in-band fault
// detection; err is any other failure. A non-empty tracePath attaches
// an event recorder to the device and writes the episode timeline as
// Chrome trace-event JSON after the run.
func runPreempted(cfg sim.Config, wl *kernels.Workload, kind preempt.Kind, signal int64,
	faultCfg *faults.Config, tail int, tracePath string, checkpoint bool) (detected, err error) {
	var (
		tr  *sim.Tracer
		rec *trace.Recorder
	)
	e := harness.Episode{Cfg: cfg, MaxCycles: 1 << 40, Workload: wl, Kind: kind, Signal: signal,
		Faults: faultCfg, Complete: true}
	e.Setup = func(d *sim.Device) {
		if tail > 0 {
			tr = d.EnableTrace(tail)
		}
		if tracePath != "" {
			rec = trace.NewRecorder()
			d.AttachRecorder(rec)
		}
	}
	e.OnLost = func(attempt int) {
		fmt.Printf("preemption signal lost (attempt %d), re-raising\n", attempt)
	}
	e.Parked = func(pk *harness.Parked) error {
		ep := pk.Ep
		fmt.Printf("preempted SM 0 at cycle %d with %v: %d warps, latency %d cycles (%.2f us), %d context bytes\n",
			signal, kind, len(ep.Victims), ep.PreemptLatencyCycles(),
			cfg.CyclesToMicros(ep.PreemptLatencyCycles()), ep.SavedBytes())
		if !checkpoint {
			return nil
		}
		_, enc := snapshot.Capture(pk.Device, 1)
		res, err := pk.Restore(kind, wl.Prog, enc, enc, 1)
		if err != nil {
			return err
		}
		path := "synchronous"
		if res.Outcome.Speculative {
			path = "speculative"
		}
		fmt.Printf("checkpointed whole device (%d bytes) and restored it onto a cold shell (%s path): setup %d + transfer %d cycles\n",
			len(enc), path, res.Outcome.SetupCycles, res.Outcome.TransferCycles)
		return nil
	}
	run, err := e.Run()
	switch {
	case err != nil:
		return nil, err
	case run.Drained:
		return nil, fmt.Errorf("SM 0 drained before the signal at cycle %d: nothing to preempt", signal)
	}
	if ep := run.Ep; ep != nil && ep.Finished() {
		fmt.Printf("resumed: %d cycles (%.2f us) until all warps regained progress\n",
			ep.ResumeCycles(), cfg.CyclesToMicros(ep.ResumeCycles()))
	}
	if run.Detected != nil {
		return run.Detected, nil
	}
	if checkpoint {
		fmt.Println("speculative restore validated: deferred memory checksum matches")
	}
	if run.VerifyErr != nil {
		return nil, fmt.Errorf("preempted run failed verification: %w", run.VerifyErr)
	}
	fmt.Println("preempted run completed — output verified identical to golden reference")
	if faultCfg != nil {
		fs := run.Device.FaultStats()
		fmt.Printf("faults injected: %d total (%d transient save, %d transient restore, %d stalls); episode absorbed %d retries\n",
			fs.Total(), fs.TransientSaveFaults, fs.TransientRestoreFaults, fs.Stalls,
			run.Ep.Faults.TransientRetries)
	}
	if tr != nil {
		fmt.Printf("\nlast %d executed instructions:\n%s", tail, tr.Render())
	}
	if rec != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := trace.WriteChromeTrace(f, rec.Events()); err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("wrote %d trace events to %s (open in chrome://tracing)\n", rec.Len(), tracePath)
	}
	return nil, nil
}
