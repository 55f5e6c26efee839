package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"ctxback/internal/core"
	"ctxback/internal/kernels"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
	"ctxback/internal/trace"
)

// runChild runs one iteration: set-up, then the timed phase, then the
// untimed checks of its outputs. A traced iteration also profiles the
// timed phase and runs the layer probes after the checks.
func runChild(w *workload, seed int64, workers int, traced bool) *childResult {
	e := &env{seed: seed, workers: workers, reg: trace.NewRegistry(), start: time.Now()}
	res := &childResult{}
	var p *prepared
	err := e.do("", "setup", func() (err error) {
		p, err = w.setup(e)
		return err
	})
	res.SetupS = time.Since(e.start).Seconds()
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		res.Errors = []string{"setup: " + err.Error()}
		return res
	}
	// Collect the set-up's garbage here, so that the timed phase does
	// not pay for it at a point that depends on heap pacing.
	runtime.GC()
	before := readRuntime()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.Attempted, res.Failed = 1, 1
			res.Errors = []string{"cpu profile: " + err.Error()}
			return res
		}
	}
	t := time.Now()
	runErr := e.do("", "timed", p.run)
	res.WallS = time.Since(t).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	after := readRuntime()
	out, err := p.check(runErr)
	res.Attempted, res.Failed, res.Exact = out.attempted, out.failed, out.exact
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
		return res
	}
	if !traced {
		return res
	}

	layers := map[string]float64{}
	for k, v := range out.exact {
		layers[k] = v
	}
	for _, name := range []string{"harness.tablei", "harness.fig7", "harness.dynamic", "harness.fig10",
		"harness.ablation", "sched.gentrace", "sched.serve", "sched.fleet"} {
		layers[name+"_s"] = e.spanSeconds(name)
	}
	layers["go.alloc_mb"] = (after[0] - before[0]) / (1 << 20)
	layers["go.gc_cpu_s"] = after[1] - before[1]
	layers["go.gc_cycles"] = after[2] - before[2]
	if err := attribute(prof.Bytes(), layers); err != nil {
		res.Errors = append(res.Errors, "profile: "+err.Error())
	}
	if err := probe(p, layers); err != nil {
		res.Errors = append(res.Errors, "probe: "+err.Error())
		res.Failed++
	}
	res.Layers = layers
	res.Spans = e.spans
	return res
}

// readRuntime reads cumulative allocation bytes, GC CPU seconds and GC
// cycles from runtime/metrics.
func readRuntime() [3]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return [3]float64{float64(s[0].Value.Uint64()), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// probeBudget is the least host time each timing probe accumulates.
const probeBudget = 300 * time.Millisecond

// probe calls single layers directly on the workload's own kernels and
// device configuration: kernel construction, a fresh core.Compile per
// kernel, each kernel run alone on its own device at 1 and 2 SM shards,
// and a whole-device Capture/Decode of a device stopped mid-kernel.
func probe(p *prepared, layers map[string]float64) error {
	t := time.Now()
	wls := make([]*kernels.Workload, len(p.kernels))
	for i, name := range p.kernels {
		wl, err := kernels.ByAbbrev(name, p.params)
		if err != nil {
			return err
		}
		wls[i] = wl
	}
	layers["kernels.build_s"] = time.Since(t).Seconds()

	var compile time.Duration
	km := -1
	for i, wl := range wls {
		t := time.Now()
		if _, err := core.Compile(wl.Prog, core.FeatAll); err != nil {
			return fmt.Errorf("compile %s: %w", wl.Abbrev, err)
		}
		dt := time.Since(t)
		compile += dt
		if wl.Abbrev == "KM" {
			km = i
			layers["core.compile_km_s"] = dt.Seconds()
		}
	}
	layers["core.compile_s"] = compile.Seconds()
	if km < 0 {
		wl, err := kernels.ByAbbrev("KM", p.params)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := core.Compile(wl.Prog, core.FeatAll); err != nil {
			return fmt.Errorf("compile KM: %w", err)
		}
		layers["core.compile_km_s"] = time.Since(t).Seconds()
	}

	var host [2]time.Duration
	var inst, cycles int64
	var golden []int64
	for si, shards := range []int{1, 2} {
		for round := 0; round == 0 || host[si] < probeBudget; round++ {
			for _, wl := range wls {
				d, err := sim.NewDevice(p.dev)
				if err != nil {
					return err
				}
				d.SetShards(shards)
				if _, err := wl.Launch(d); err != nil {
					return fmt.Errorf("%s: %w", wl.Abbrev, err)
				}
				t := time.Now()
				if err := d.Run(maxProbeCycles); err != nil {
					return fmt.Errorf("%s: %w", wl.Abbrev, err)
				}
				host[si] += time.Since(t)
				if err := wl.Verify(d); err != nil {
					return fmt.Errorf("%s at %d shards: %w", wl.Abbrev, shards, err)
				}
				if si == 0 {
					inst += d.Stats.Instructions
					cycles += d.Stats.Cycles
					if round == 0 {
						golden = append(golden, d.Stats.Cycles)
					}
				}
			}
		}
	}
	layers["sim.inst_per_s"] = float64(inst) / host[0].Seconds()
	layers["sim.cycles_per_s"] = float64(cycles) / host[0].Seconds()
	layers["sim.shard2_speedup"] = host[0].Seconds() / host[1].Seconds()

	// The longest-running kernel, stopped halfway, is the mid-run device.
	longest := 0
	for i := range golden {
		if golden[i] > golden[longest] {
			longest = i
		}
	}
	var enc, dec []float64
	var spent time.Duration
	for len(enc) < 3 || spent < probeBudget {
		d, err := sim.NewDevice(p.dev)
		if err != nil {
			return err
		}
		if _, err := wls[longest].Launch(d); err != nil {
			return err
		}
		if err := d.RunToCycle(golden[longest]/2, maxProbeCycles); err != nil {
			return err
		}
		t := time.Now()
		_, data := snapshot.Capture(d, 1)
		te := time.Since(t)
		t = time.Now()
		if _, err := snapshot.Decode(data); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		td := time.Since(t)
		spent += te + td
		mib := float64(len(data)) / (1 << 20)
		enc = append(enc, mib/te.Seconds())
		dec = append(dec, mib/td.Seconds())
	}
	layers["snapshot.encode_mb_per_s"] = median(enc)
	layers["snapshot.decode_mb_per_s"] = median(dec)
	return nil
}

const maxProbeCycles = 200_000_000

// layerOf maps a package under ctxback/internal to the layer its CPU
// time is reported under.
var layerOf = map[string]string{
	"harness": "harness", "core": "core", "cfg": "core", "liveness": "core",
	"kernels": "kernels", "sim": "sim", "sched": "sched", "snapshot": "snapshot",
	"preempt": "preempt", "isa": "isa",
}

// attribute decodes a CPU profile and charges each sample to the layer
// of the innermost ctxback/internal frame on its stack, so GC assists
// and allocation count against the layer that triggered them. Samples
// of the Go runtime's background GC workers, which run on no program
// stack, are charged to the runtime as go.gc_bg_cpu_s. The rest (the
// benchmark's own code, other runtime work) stays unattributed.
func attribute(data []byte, layers map[string]float64) error {
	prof, err := parseProfile(data)
	if err != nil {
		return err
	}
	cpu := map[string]float64{}
	var total, attributed int64
	for _, s := range prof.samples {
		total += s.count
		if layer := layerOfStack(prof.names(s.stack)); layer != "" {
			attributed += s.count
			cpu[layer] += float64(s.nanos) / 1e9
		}
	}
	for _, l := range []string{"harness", "core", "kernels", "sim", "sched", "snapshot", "preempt", "isa", "other"} {
		layers[l+".cpu_s"] = cpu[l]
	}
	layers["go.gc_bg_cpu_s"] = cpu["go.gc_bg"]
	layers["profile.samples"] = float64(total)
	if total > 0 {
		layers["profile.attributed_frac"] = float64(attributed) / float64(total)
	}
	return nil
}

// layerOfStack names the layer a sample's stack (innermost first) is
// charged to, or "" if none.
func layerOfStack(names []string) string {
	const prefix = "ctxback/internal/"
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		pkg := name[len(prefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if layer, ok := layerOf[pkg]; ok {
			return layer
		}
		return "other"
	}
	for _, name := range names {
		if strings.HasPrefix(name, "runtime.gcBgMarkWorker") {
			return "go.gc_bg"
		}
	}
	return ""
}
