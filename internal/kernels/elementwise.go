package kernels

import (
	"math/rand"

	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

// Shorthands for kernel construction.
var (
	vr = isa.V
	sr = isa.S
	rg = isa.R
	im = isa.Imm
	fi = isa.ImmF
)

// Memory-space tags shared by the element-wise kernels.
const (
	spaceA = 1
	spaceB = 2
	spaceC = 3
)

// NewVA builds Vector Addition (Table I: 3.0 KB vregs): c = a + b over
// integer data, persistent-thread loop with unroll 2. The integer adds
// and address arithmetic give CTXBack reverting opportunities.
func NewVA(p Params) (*Workload, error) {
	const unroll = 4
	elemsPerIter := unroll * isa.WarpSize
	perWarp := p.ItersPerWarp * elemsPerIter
	warps := p.NumBlocks * p.WarpsPerBlock
	total := warps * perWarp
	aBase := p.base()
	bBase := aBase + total*4
	cBase := bBase + total*4

	b := isa.NewBuilder("va", 12, 36, 0)
	// ABI: s4=a tile, s5=b tile, s6=c tile, s7=iterations.
	b.I(isa.VLaneID, rg(vr(0)))
	b.NoOvf(isa.VShl, rg(vr(0)), rg(vr(0)), im(2)).Comment("lane byte offset")
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(0)), rg(sr(4)))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(0)), rg(sr(5)))
	b.NoOvf(isa.VAdd, rg(vr(3)), rg(vr(0)), rg(sr(6)))
	b.Label("loop")
	for u := 0; u < unroll; u++ {
		b.I(isa.VGLoad, rg(vr(4+u)), rg(vr(1)), im(u*256)).Space(spaceA)
	}
	for u := 0; u < unroll; u++ {
		b.I(isa.VGLoad, rg(vr(8+u)), rg(vr(2)), im(u*256)).Space(spaceB)
	}
	for u := 0; u < unroll; u++ {
		b.I(isa.VAdd, rg(vr(4+u)), rg(vr(4+u)), rg(vr(8+u)))
	}
	for u := 0; u < unroll; u++ {
		b.I(isa.VGStore, rg(vr(3)), rg(vr(4+u)), im(u*256)).Space(spaceC)
	}
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), im(elemsPerIter*4))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), im(elemsPerIter*4))
	b.NoOvf(isa.VAdd, rg(vr(3)), rg(vr(3)), im(elemsPerIter*4))
	b.I(isa.SSub, rg(sr(7)), rg(sr(7)), im(1))
	b.I(isa.SCmpGt, rg(sr(7)), im(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	a := randInts(rng, total, 1<<20)
	bb := randInts(rng, total, 1<<20)
	want := make([]uint32, total)
	for i := range want {
		want[i] = a[i] + bb[i]
	}
	return &Workload{
		Abbrev: "VA", FullName: "Vector Addition", Prog: prog,
		SpanBytes:   cBase + total*4 - aBase,
		PaperVRegKB: 3.0, PaperSRegKB: 0.141, PaperLDSKB: 0,
		PaperPreemptUs: 102.2, PaperResumeUs: 81.1,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
		Init: func(d *sim.Device) error {
			if err := d.WriteWords(aBase, a); err != nil {
				return err
			}
			return d.WriteWords(bBase, bb)
		},
		WarpSetup: func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(aBase, w.ID, perWarp)
			w.SRegs[5] = warpTileBase(bBase, w.ID, perWarp)
			w.SRegs[6] = warpTileBase(cBase, w.ID, perWarp)
			w.SRegs[7] = uint64(p.ItersPerWarp)
		},
		Verify: func(d *sim.Device) error { return checkWords(d, cBase, want, "VA") },
	}, nil
}

// NewRELU builds ReLU Activation (4.0 KB vregs): out = max(0, in) over
// float32, unroll 4.
func NewRELU(p Params) (*Workload, error) {
	const unroll = 8
	elemsPerIter := unroll * isa.WarpSize
	perWarp := p.ItersPerWarp * elemsPerIter
	warps := p.NumBlocks * p.WarpsPerBlock
	total := warps * perWarp
	inBase := p.base()
	outBase := inBase + total*4

	b := isa.NewBuilder("relu", 13, 36, 0)
	// ABI: s4=in tile, s5=out tile, s6=iterations.
	b.I(isa.VLaneID, rg(vr(0)))
	b.NoOvf(isa.VShl, rg(vr(0)), rg(vr(0)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(0)), rg(sr(4)))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(0)), rg(sr(5)))
	b.I(isa.VMov, rg(vr(3)), fi(0))
	b.Label("loop")
	for u := 0; u < unroll; u++ {
		b.I(isa.VGLoad, rg(vr(4+u)), rg(vr(1)), im(u*256)).Space(spaceA)
	}
	for u := 0; u < unroll; u++ {
		b.I(isa.VMaxF, rg(vr(4+u)), rg(vr(4+u)), rg(vr(3)))
	}
	for u := 0; u < unroll; u++ {
		b.I(isa.VGStore, rg(vr(2)), rg(vr(4+u)), im(u*256)).Space(spaceC)
	}
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), im(elemsPerIter*4))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), im(elemsPerIter*4))
	b.I(isa.SSub, rg(sr(6)), rg(sr(6)), im(1))
	b.I(isa.SCmpGt, rg(sr(6)), im(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	in := randFloats(rng, total)
	want := make([]uint32, total)
	for i := range want {
		v := asF(in[i])
		if !(v > 0) {
			v = 0
		}
		want[i] = f32(v)
	}
	return &Workload{
		Abbrev: "RELU", FullName: "ReLU Activation", Prog: prog,
		SpanBytes:   outBase + total*4 - inBase,
		PaperVRegKB: 4.0, PaperSRegKB: 0.141, PaperLDSKB: 0,
		PaperPreemptUs: 93.8, PaperResumeUs: 75.5,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
		Init: func(d *sim.Device) error { return d.WriteWords(inBase, in) },
		WarpSetup: func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(inBase, w.ID, perWarp)
			w.SRegs[5] = warpTileBase(outBase, w.ID, perWarp)
			w.SRegs[6] = uint64(p.ItersPerWarp)
		},
		Verify: func(d *sim.Device) error { return checkWords(d, outBase, want, "RELU") },
	}, nil
}

// NewLRN builds Local Response Normalization (4.0 KB vregs), simplified
// to the within-channel form: out = in / (k + alpha*in^2), unroll 2.
func NewLRN(p Params) (*Workload, error) {
	const (
		unroll = 2
		kConst = float32(2.0)
		alpha  = float32(0.75)
	)
	elemsPerIter := unroll * isa.WarpSize
	perWarp := p.ItersPerWarp * elemsPerIter
	warps := p.NumBlocks * p.WarpsPerBlock
	total := warps * perWarp
	inBase := p.base()
	outBase := inBase + total*4

	b := isa.NewBuilder("lrn", 13, 36, 0)
	b.I(isa.VLaneID, rg(vr(0)))
	b.NoOvf(isa.VShl, rg(vr(0)), rg(vr(0)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(0)), rg(sr(4)))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(0)), rg(sr(5)))
	b.Label("loop")
	for u := 0; u < unroll; u++ {
		b.I(isa.VGLoad, rg(vr(3+u)), rg(vr(1)), im(u*256)).Space(spaceA)
	}
	for u := 0; u < unroll; u++ {
		d, t := vr(3+u), vr(5+u)
		b.I(isa.VMulF, rg(t), rg(d), rg(d)).Comment("in^2")
		b.I(isa.VMulF, rg(t), rg(t), fi(alpha))
		b.I(isa.VAddF, rg(t), rg(t), fi(kConst))
		b.I(isa.VRcpF, rg(t), rg(t))
		b.I(isa.VMulF, rg(vr(7+u)), rg(d), rg(t))
	}
	for u := 0; u < unroll; u++ {
		b.I(isa.VGStore, rg(vr(2)), rg(vr(7+u)), im(u*256)).Space(spaceC)
	}
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), im(elemsPerIter*4))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), im(elemsPerIter*4))
	b.I(isa.SSub, rg(sr(6)), rg(sr(6)), im(1))
	b.I(isa.SCmpGt, rg(sr(6)), im(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	in := randFloats(rng, total)
	want := make([]uint32, total)
	for i := range want {
		x := asF(in[i])
		den := x*x*alpha + kConst
		want[i] = f32(x * (1 / den))
	}
	return &Workload{
		Abbrev: "LRN", FullName: "Local Response Norm", Prog: prog,
		SpanBytes:   outBase + total*4 - inBase,
		PaperVRegKB: 4.0, PaperSRegKB: 0.141, PaperLDSKB: 0,
		PaperPreemptUs: 74.9, PaperResumeUs: 57.8,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
		Init: func(d *sim.Device) error { return d.WriteWords(inBase, in) },
		WarpSetup: func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(inBase, w.ID, perWarp)
			w.SRegs[5] = warpTileBase(outBase, w.ID, perWarp)
			w.SRegs[6] = uint64(p.ItersPerWarp)
		},
		Verify: func(d *sim.Device) error { return checkWords(d, outBase, want, "LRN") },
	}, nil
}

// NewAP builds Average Pooling (7.0 KB vregs): 1-D pooling with window 4
// and stride 4, unroll 4 (each lane pools 4 windows per iteration).
func NewAP(p Params) (*Workload, error) {
	const (
		unroll = 4
		window = 4
	)
	outPerIter := unroll * isa.WarpSize
	outPerWarp := p.ItersPerWarp * outPerIter
	inPerWarp := outPerWarp * window
	warps := p.NumBlocks * p.WarpsPerBlock
	totalOut := warps * outPerWarp
	totalIn := warps * inPerWarp
	inBase := p.base()
	outBase := inBase + totalIn*4

	b := isa.NewBuilder("ap", 28, 48, 0)
	// ABI: s4=in tile, s5=out tile, s6=iterations.
	b.I(isa.VLaneID, rg(vr(0)))
	b.NoOvf(isa.VShl, rg(vr(1)), rg(vr(0)), im(4)).Comment("lane*16: input window stride")
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), rg(sr(4)))
	b.NoOvf(isa.VShl, rg(vr(2)), rg(vr(0)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), rg(sr(5)))
	b.I(isa.VMov, rg(vr(3)), fi(0.25))
	b.Label("loop")
	// Load 4 windows x 4 elements into v4..v19.
	for u := 0; u < unroll; u++ {
		for e := 0; e < window; e++ {
			off := u*isa.WarpSize*window*4 + e*4
			b.I(isa.VGLoad, rg(vr(4+u*window+e)), rg(vr(1)), im(off)).Space(spaceA)
		}
	}
	// Sum and scale into v20..v23.
	for u := 0; u < unroll; u++ {
		base := 4 + u*window
		acc := vr(20 + u)
		b.I(isa.VAddF, rg(acc), rg(vr(base)), rg(vr(base+1)))
		b.I(isa.VAddF, rg(acc), rg(acc), rg(vr(base+2)))
		b.I(isa.VAddF, rg(acc), rg(acc), rg(vr(base+3)))
		b.I(isa.VMulF, rg(acc), rg(acc), rg(vr(3)))
	}
	for u := 0; u < unroll; u++ {
		b.I(isa.VGStore, rg(vr(2)), rg(vr(20+u)), im(u*isa.WarpSize*4)).Space(spaceC)
	}
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), im(outPerIter*window*4))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), im(outPerIter*4))
	b.I(isa.SSub, rg(sr(6)), rg(sr(6)), im(1))
	b.I(isa.SCmpGt, rg(sr(6)), im(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	in := randFloats(rng, totalIn)
	want := make([]uint32, totalOut)
	for wid := 0; wid < warps; wid++ {
		for it := 0; it < p.ItersPerWarp; it++ {
			for u := 0; u < unroll; u++ {
				for lane := 0; lane < isa.WarpSize; lane++ {
					// Input layout per iteration step: lane-major windows.
					inIdx := wid*inPerWarp + it*outPerIter*window + u*isa.WarpSize*window + lane*window
					outIdx := wid*outPerWarp + it*outPerIter + u*isa.WarpSize + lane
					s := asF(in[inIdx]) + asF(in[inIdx+1])
					s = s + asF(in[inIdx+2])
					s = s + asF(in[inIdx+3])
					want[outIdx] = f32(s * 0.25)
				}
			}
		}
	}
	return &Workload{
		Abbrev: "AP", FullName: "Average Pooling", Prog: prog,
		SpanBytes:   outBase + totalOut*4 - inBase,
		PaperVRegKB: 7.0, PaperSRegKB: 0.188, PaperLDSKB: 0,
		PaperPreemptUs: 103.4, PaperResumeUs: 87.1,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
		Init: func(d *sim.Device) error { return d.WriteWords(inBase, in) },
		WarpSetup: func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(inBase, w.ID, inPerWarp)
			w.SRegs[5] = warpTileBase(outBase, w.ID, outPerWarp)
			w.SRegs[6] = uint64(p.ItersPerWarp)
		},
		Verify: func(d *sim.Device) error { return checkWords(d, outBase, want, "AP") },
	}, nil
}

// NewDC builds Direct Convolution (8.0 KB vregs): 1-D convolution with a
// 5-tap filter held in scalar registers, unroll 4.
func NewDC(p Params) (*Workload, error) {
	const (
		unroll = 4
		taps   = 5
	)
	outPerIter := unroll * isa.WarpSize
	outPerWarp := p.ItersPerWarp * outPerIter
	inPerWarp := outPerWarp + taps - 1
	warps := p.NumBlocks * p.WarpsPerBlock
	totalOut := warps * outPerWarp
	inStride := outPerWarp + 64 // generous tile stride, keeps tiles disjoint
	totalIn := warps * inStride
	inBase := p.base()
	outBase := inBase + totalIn*4

	filter := []float32{0.1, -0.25, 0.5, 0.3, -0.2}

	b := isa.NewBuilder("dc", 30, 36, 0)
	// ABI: s4=in tile, s5=out tile, s6=iterations, s8..s12=filter taps.
	b.I(isa.VLaneID, rg(vr(0)))
	b.NoOvf(isa.VShl, rg(vr(0)), rg(vr(0)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(0)), rg(sr(4)))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(0)), rg(sr(5)))
	b.Label("loop")
	// Load unroll*64 + 4 halo elements: per unroll step, 5 shifted loads.
	for u := 0; u < unroll; u++ {
		acc := vr(3 + u)
		b.I(isa.VMov, rg(acc), fi(0))
		for t := 0; t < taps; t++ {
			data := vr(7 + u*taps + t)
			off := u*isa.WarpSize*4 + t*4
			b.I(isa.VGLoad, rg(data), rg(vr(1)), im(off)).Space(spaceA)
			b.I(isa.VMadF, rg(acc), rg(data), rg(sr(8+t)), rg(acc))
		}
	}
	for u := 0; u < unroll; u++ {
		b.I(isa.VGStore, rg(vr(2)), rg(vr(3+u)), im(u*isa.WarpSize*4)).Space(spaceC)
	}
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), im(outPerIter*4))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), im(outPerIter*4))
	b.I(isa.SSub, rg(sr(6)), rg(sr(6)), im(1))
	b.I(isa.SCmpGt, rg(sr(6)), im(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	in := randFloats(rng, totalIn)
	want := make([]uint32, totalOut)
	for wid := 0; wid < warps; wid++ {
		for o := 0; o < outPerWarp; o++ {
			acc := float32(0)
			for t := 0; t < taps; t++ {
				acc = asF(in[wid*inStride+o+t])*filter[t] + acc
			}
			want[wid*outPerWarp+o] = f32(acc)
		}
	}
	_ = inPerWarp
	return &Workload{
		Abbrev: "DC", FullName: "Direct Convolution", Prog: prog,
		SpanBytes:   outBase + totalOut*4 - inBase,
		PaperVRegKB: 8.0, PaperSRegKB: 0.141, PaperLDSKB: 0,
		PaperPreemptUs: 153.0, PaperResumeUs: 114.2,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
		Init: func(d *sim.Device) error { return d.WriteWords(inBase, in) },
		WarpSetup: func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(inBase, w.ID, inStride)
			w.SRegs[5] = warpTileBase(outBase, w.ID, outPerWarp)
			w.SRegs[6] = uint64(p.ItersPerWarp)
			for t, c := range filter {
				w.SRegs[8+t] = uint64(f32(c))
			}
		},
		Verify: func(d *sim.Device) error { return checkWords(d, outBase, want, "DC") },
	}, nil
}
