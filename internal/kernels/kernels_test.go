package kernels

import (
	"testing"

	"ctxback/internal/cfg"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
	"ctxback/internal/sim"
)

func runWorkload(t *testing.T, wl *Workload) *sim.Device {
	t.Helper()
	d := mustDevice(sim.TestConfig())
	if _, err := wl.Launch(d); err != nil {
		t.Fatalf("%s: launch: %v", wl.Abbrev, err)
	}
	if err := d.Run(500_000_000); err != nil {
		t.Fatalf("%s: run: %v", wl.Abbrev, err)
	}
	return d
}

func TestAllWorkloadsProduceGoldenOutput(t *testing.T) {
	all, err := All(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 12 {
		t.Fatalf("registry has %d workloads, want 12", len(all))
	}
	for _, wl := range all {
		wl := wl
		t.Run(wl.Abbrev, func(t *testing.T) {
			d := runWorkload(t, wl)
			if err := wl.Verify(d); err != nil {
				t.Fatalf("%s verification failed: %v", wl.Abbrev, err)
			}
		})
	}
}

func TestWorkloadResourceFootprints(t *testing.T) {
	all, err := All(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range all {
		gotVRegKB := float64(wl.Prog.VRegContextBytes()) / 1024
		if diff := gotVRegKB - wl.PaperVRegKB; diff < -0.75 || diff > 0.75 {
			t.Errorf("%s: allocated vreg context %.2f KB, paper reports %.2f KB",
				wl.Abbrev, gotVRegKB, wl.PaperVRegKB)
		}
		gotLDSKB := float64(wl.Prog.LDSBytes) / 1024
		if gotLDSKB != wl.PaperLDSKB {
			t.Errorf("%s: LDS %.2f KB, paper reports %.2f KB", wl.Abbrev, gotLDSKB, wl.PaperLDSKB)
		}
	}
}

func TestWorkloadsValidateAndAnalyze(t *testing.T) {
	all, err := All(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range all {
		if err := wl.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", wl.Abbrev, err)
			continue
		}
		g, err := cfg.Build(wl.Prog)
		if err != nil {
			t.Errorf("%s: cfg: %v", wl.Abbrev, err)
			continue
		}
		info := liveness.Analyze(g)
		// The kernels' live sets must show variety: the max live-in count
		// must exceed the min by a reasonable margin somewhere, otherwise
		// the whole evaluation is moot.
		minLive, maxLive := 1<<30, 0
		for pc := 0; pc < wl.Prog.Len(); pc++ {
			n := len(info.LiveIn[pc])
			if n < minLive {
				minLive = n
			}
			if n > maxLive {
				maxLive = n
			}
		}
		if maxLive-minLive < 3 {
			t.Errorf("%s: live-register variety too small (min %d, max %d)", wl.Abbrev, minLive, maxLive)
		}
	}
}

func TestWorkloadsHaveLoops(t *testing.T) {
	// The paper's batch jobs use persistent-thread loops; every kernel
	// must contain at least one loop for CKPT/preemption sampling to be
	// meaningful.
	all, err := All(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range all {
		g := mustGraph(wl.Prog)
		if len(g.LoopHeaders()) == 0 {
			t.Errorf("%s has no loops", wl.Abbrev)
		}
	}
}

func TestByAbbrev(t *testing.T) {
	wl, err := ByAbbrev("KM", TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if wl.FullName != "K-Means" {
		t.Errorf("got %q", wl.FullName)
	}
	if _, err := ByAbbrev("NOPE", TestParams()); err == nil {
		t.Error("unknown abbrev must error")
	}
}

func TestHSRegionsBrokenByAtomics(t *testing.T) {
	wl, err := NewHS(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	g := mustGraph(wl.Prog)
	// Find the atomic and confirm PCs after it in the same block cannot
	// flash back across it.
	atomicPC := -1
	for pc := 0; pc < wl.Prog.Len(); pc++ {
		if wl.Prog.At(pc).Op == isa.VGAtomicAdd {
			atomicPC = pc
			break
		}
	}
	if atomicPC < 0 {
		t.Fatal("HS has no atomic")
	}
	blk := g.BlockOf(atomicPC)
	if atomicPC+1 < blk.End {
		if h := g.FlashbackHead(atomicPC + 1); h != atomicPC+1 {
			t.Errorf("FlashbackHead after atomic = %d, want %d", h, atomicPC+1)
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	// Two devices running the same workload must produce identical memory.
	wl1, err := NewDOT(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	wl2, err := NewDOT(TestParams())
	if err != nil {
		t.Fatal(err)
	}
	d1 := runWorkload(t, wl1)
	d2 := runWorkload(t, wl2)
	for i := range d1.Mem {
		if d1.Mem[i] != d2.Mem[i] {
			t.Fatalf("nondeterminism at word %d", i)
		}
	}
}

// TestSpanBytesCoversFootprint pins each workload's reported buffer span:
// after Init and a full run, every nonzero word of device memory lies in
// [MemBase, MemBase+SpanBytes). A span that undershoots would let the
// scheduler's slab check pass a kernel that spills into its neighbour.
func TestSpanBytesCoversFootprint(t *testing.T) {
	p := TestParams()
	p.MemBase = 3 * bufBase
	all, err := All(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range all {
		if wl.SpanBytes <= 0 {
			t.Errorf("%s: SpanBytes = %d", wl.Abbrev, wl.SpanBytes)
			continue
		}
		d := runWorkload(t, wl)
		for i, w := range d.Mem {
			if a := 4 * i; w != 0 && (a < p.MemBase || a >= p.MemBase+wl.SpanBytes) {
				t.Errorf("%s: word %#x = %#x outside span [%#x, %#x)",
					wl.Abbrev, a, w, p.MemBase, p.MemBase+wl.SpanBytes)
				break
			}
		}
	}
}
