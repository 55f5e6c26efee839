// Package kernels provides the twelve benchmark kernels of the paper's
// Table I (AP, DC, DOT, GE, HS, KM, LRN, MM, MS, MV, RELU, VA), written
// in the internal/isa SIMT assembly with loops, unrolling and register
// footprints matching the paper's reported per-warp resource usage. Each
// workload carries host-side input generation and a CPU golden reference
// so any preemption technique can be verified end-to-end on the
// simulator.
package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

// Workload bundles a kernel with its host-side driver.
type Workload struct {
	Abbrev   string
	FullName string
	Prog     *isa.Program

	// Paper Table I per-warp resource usage (KB), for reporting.
	PaperVRegKB    float64
	PaperSRegKB    float64
	PaperLDSKB     float64
	PaperPreemptUs float64
	PaperResumeUs  float64

	NumBlocks     int
	WarpsPerBlock int
	// SpanBytes is the device memory the buffers occupy from
	// Params.MemBase: the end of the last buffer minus the base.
	SpanBytes int

	// Init writes the input buffers into device memory.
	Init func(d *sim.Device) error
	// WarpSetup loads each warp's kernel arguments into scalar registers.
	WarpSetup func(w *sim.Warp)
	// Verify checks device memory against the CPU golden reference.
	Verify func(d *sim.Device) error
}

// Params scales the workloads.
type Params struct {
	NumBlocks     int
	WarpsPerBlock int
	// ItersPerWarp controls each warp's main-loop trip count.
	ItersPerWarp int
	Seed         int64
	// MemBase is the byte address the workload's buffers start at
	// (default bufBase); lets several workloads coexist on one device.
	MemBase int
}

// base returns the workload's buffer base address.
func (p Params) base() int {
	if p.MemBase > 0 {
		return p.MemBase
	}
	return bufBase
}

// TestParams is a small configuration for unit tests.
func TestParams() Params {
	return Params{NumBlocks: 2, WarpsPerBlock: 2, ItersPerWarp: 6, Seed: 42}
}

// EvalParams sizes workloads for the evaluation harness: enough work per
// warp that preemption lands mid-loop, small enough to simulate quickly.
func EvalParams() Params {
	return Params{NumBlocks: 8, WarpsPerBlock: 2, ItersPerWarp: 24, Seed: 7}
}

// Factory builds a workload at a given scale.
type Factory func(p Params) (*Workload, error)

// Registry lists the factories in Table I order.
func Registry() []Factory {
	return []Factory{
		NewAP, NewDC, NewDOT, NewGE, NewHS, NewKM,
		NewLRN, NewMM, NewMS, NewMV, NewRELU, NewVA,
	}
}

// All instantiates every workload.
func All(p Params) ([]*Workload, error) {
	var out []*Workload
	for _, f := range Registry() {
		w, err := f(p)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// factories maps each Table I abbreviation to its factory, so ByAbbrev
// can instantiate ONE workload instead of building all twelve and
// discarding eleven (host-side input generation and golden references —
// mergesort's sorted copy in particular — dominate construction, and a
// scheduler admitting thousands of jobs calls this per job).
var factories = map[string]Factory{
	"AP": NewAP, "DC": NewDC, "DOT": NewDOT, "GE": NewGE, "HS": NewHS,
	"KM": NewKM, "LRN": NewLRN, "MM": NewMM, "MS": NewMS, "MV": NewMV,
	"RELU": NewRELU, "VA": NewVA,
}

// ByAbbrev instantiates one workload by its Table I abbreviation.
func ByAbbrev(abbrev string, p Params) (*Workload, error) {
	f, ok := factories[abbrev]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown benchmark %q", abbrev)
	}
	return f(p)
}

// Launch places the workload on the device.
func (wl *Workload) Launch(d *sim.Device) (*sim.Launch, error) {
	if wl.Init != nil {
		if err := wl.Init(d); err != nil {
			return nil, err
		}
	}
	return d.Launch(sim.LaunchSpec{
		Prog:          wl.Prog,
		NumBlocks:     wl.NumBlocks,
		WarpsPerBlock: wl.WarpsPerBlock,
		Setup:         wl.WarpSetup,
	})
}

// TotalWarps returns the grid's warp count.
func (wl *Workload) TotalWarps() int { return wl.NumBlocks * wl.WarpsPerBlock }

// ---- shared helpers ----

// memory layout: every workload places its buffers from this base up,
// leaving the low region free for scratch.
const bufBase = 4096

func f32(x float32) uint32 { return math.Float32bits(x) }
func asF(x uint32) float32 { return math.Float32frombits(x) }

// randFloats fills n float32 words in [-1, 1).
func randFloats(rng *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = f32(rng.Float32()*2 - 1)
	}
	return out
}

// randInts fills n words with small non-negative integers.
func randInts(rng *rand.Rand, n, bound int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(rng.Intn(bound))
	}
	return out
}

// checkWords compares a device region against expectation, reporting the
// first few mismatches.
func checkWords(d *sim.Device, addr int, want []uint32, what string) error {
	got, err := d.ReadWords(addr, len(want))
	if err != nil {
		return err
	}
	bad := 0
	var first error
	for i := range want {
		if got[i] != want[i] {
			if first == nil {
				first = fmt.Errorf("%s: word %d = %#x, want %#x", what, i, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d/%d mismatches; first: %w", bad, len(want), first)
	}
	return nil
}

// warpTileBase returns the byte address of warp w's tile in a buffer of
// elemsPerWarp 4-byte elements starting at base.
func warpTileBase(base, warpID, elemsPerWarp int) uint64 {
	return uint64(base + warpID*elemsPerWarp*4)
}
