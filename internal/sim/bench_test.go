package sim

import (
	"testing"

	"ctxback/internal/isa"
)

// benchLoopProgram is a mixed-traffic kernel exercising the simulator's
// hot loop: scalar and vector ALU, a data-dependent loop, LDS traffic and
// global loads/stores — the instruction mix the Table I kernels present.
func benchLoopProgram(b testing.TB) *isa.Program {
	b.Helper()
	p, err := isa.Assemble(`
.kernel benchloop
.vregs 8
.sregs 16
.lds 512
  ; s0 = loop count, s1 = out base (bytes)
  v_laneid v0
  v_mov v1, 0
  v_shl v2, v0, 2 !noovf
loop:
  v_add v1, v1, s0
  v_mul v3, v1, 3
  v_and v3, v3, 0x7F
  v_lstore v2, v3, 0
  v_lload v4, v2, 0
  v_add v1, v1, v4
  s_add s2, s2, 7
  s_and s2, s2, 0xFF
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_add v2, v2, s1
  v_gstore v2, v1, 0
  s_endpgm
`)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchOccupancyDevice builds a device with every warp slot of every SM
// filled by two tenants' compute-bound launches — the regime where the
// scheduler's per-instruction warp-selection cost dominates (selection
// work grows with occupancy, not with useful work).
func benchOccupancyDevice(b testing.TB, prog *isa.Program) *Device {
	b.Helper()
	cfg := DefaultConfig()
	cfg.GlobalMemBytes = 4 << 20 // keep per-iteration Mem allocation cheap
	d := mustNewDevice(cfg)
	// Two tenants split the device's warp slots; together they saturate
	// all NumSMs x MaxWarpsPerSM slots.
	perTenant := cfg.NumSMs * cfg.MaxWarpsPerSM / 2 / 2 // blocks of 2 warps
	for tenant := 0; tenant < 2; tenant++ {
		base := 1 << 20
		if tenant == 1 {
			base = 2 << 20
		}
		_, err := d.Launch(LaunchSpec{
			Prog: prog, NumBlocks: perTenant, WarpsPerBlock: 2,
			Setup: func(w *Warp) {
				w.SRegs[0] = 48 // loop count
				w.SRegs[1] = uint64(base + w.ID*isa.WarpSize*4)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// runOccupancyBench drives the saturated device to completion each
// iteration; scan toggles the O(W)-scan reference scheduler so the
// event-driven ready queue can be compared against it on identical work.
func runOccupancyBench(b *testing.B, scan bool) {
	prog := benchLoopProgram(b)
	var instrs int64
	for b.Loop() {
		d := benchOccupancyDevice(b, prog)
		if scan {
			d.UseReferenceScheduler()
		}
		if err := d.Run(1 << 40); err != nil {
			b.Fatal(err)
		}
		instrs += d.Stats.Instructions
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs, "sim_instrs/s")
	}
}

// BenchmarkStepFullOccupancy measures per-instruction scheduling cost at
// full occupancy (multi-tenant, all SMs saturated) under the default
// event-driven ready queue.
func BenchmarkStepFullOccupancy(b *testing.B) { runOccupancyBench(b, false) }

// BenchmarkStepFullOccupancyReference is the same workload under the
// retained O(SMs x warps) linear-scan reference scheduler — the
// before/after pair BENCH_PR5.json records.
func BenchmarkStepFullOccupancyReference(b *testing.B) { runOccupancyBench(b, true) }

// BenchmarkSimExecLoop measures the simulator's per-instruction cost on
// the hot execute/issue path. Run with -benchmem: allocs/op is the
// regression gate for the zero-allocation inner loop.
func BenchmarkSimExecLoop(b *testing.B) {
	prog := benchLoopProgram(b)
	var instrs int64
	for b.Loop() {
		d := mustNewDevice(TestConfig())
		_, err := d.Launch(LaunchSpec{
			Prog: prog, NumBlocks: 4, WarpsPerBlock: 2,
			Setup: func(w *Warp) {
				w.SRegs[0] = 64 // loop count
				w.SRegs[1] = uint64(4096 + w.ID*isa.WarpSize*4)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Run(1 << 40); err != nil {
			b.Fatal(err)
		}
		instrs += d.Stats.Instructions
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs, "sim_instrs/s")
	}
}
