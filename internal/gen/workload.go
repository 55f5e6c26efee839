package gen

import (
	"fmt"

	"ctxback/internal/kernels"
	"ctxback/internal/sim"
)

// CheckDevice compares the device's entire memory against the golden
// interpreter's image — every byte, not just the output tiles, so stray
// writes anywhere are caught.
func (p *Program) CheckDevice(d *sim.Device) error {
	want, err := p.Expected(len(d.Mem))
	if err != nil {
		return fmt.Errorf("gen seed %d: golden interpreter: %w", p.Seed, err)
	}
	bad, first := 0, -1
	for i := range want {
		if d.Mem[i] != want[i] {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("gen seed %d: %d words differ from golden interpreter; first mem[%#x] = %#x, want %#x",
			p.Seed, bad, first*4, d.Mem[first], want[first])
	}
	return nil
}

// Workload adapts the generated program to the kernels.Workload shape.
// The differential sweep (internal/gen/sweep) runs every episode of the
// corpus through it: the harness episode driver, its resume-integrity
// oracle and its BASELINE degradation loop, the same code the Table I
// evaluation and chaos sweep use. Verify checks the full memory image
// against the golden interpreter.
func (p *Program) Workload() *kernels.Workload {
	return &kernels.Workload{
		Abbrev:        fmt.Sprintf("GEN-%d", p.Seed),
		FullName:      fmt.Sprintf("generated program (seed %d)", p.Seed),
		Prog:          p.Prog,
		NumBlocks:     p.NumBlocks,
		WarpsPerBlock: p.WarpsPerBlock,
		Init:          p.Init,
		WarpSetup:     p.Setup,
		Verify:        p.CheckDevice,
	}
}
