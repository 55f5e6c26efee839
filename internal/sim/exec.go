package sim

import (
	"fmt"
	"math"

	"ctxback/internal/isa"
)

// effect reports the non-register consequences of executing one
// instruction; the SM scheduler turns these into timing and state
// transitions.
type effect struct {
	nextPC    int  // -1: fall through
	memBytes  int  // device-memory traffic
	ldsBytes  int  // LDS traffic
	barrier   bool // warp arrived at a barrier
	endpgm    bool
	ctxExit   bool
	ctxResume bool
	resumePC  int
}

// faultError is a simulation fault (bad address, misalignment, ...).
type faultError struct {
	warp *Warp
	in   *isa.Instruction
	msg  string
}

func (e *faultError) Error() string {
	return fmt.Sprintf("sim fault: warp %d pc %d (%s): %s", e.warp.ID, e.warp.PC, e.in, e.msg)
}

func (d *Device) fault(w *Warp, in *isa.Instruction, format string, args ...any) error {
	return &faultError{warp: w, in: in, msg: fmt.Sprintf(format, args...)}
}

// readScalarOperand resolves a scalar-context source (immediates are
// sign-extended from 32 bits).
func (w *Warp) readScalarOperand(o isa.Operand) uint64 {
	if o.IsImm() {
		return uint64(int64(int32(o.Imm)))
	}
	return w.readScalarReg(o.Reg)
}

func (w *Warp) readScalarReg(r isa.Reg) uint64 {
	switch r.Class {
	case isa.RegScalar:
		return w.SRegs[r.Index]
	case isa.RegSpecial:
		switch r.Index {
		case isa.SpecExec:
			return w.Exec
		case isa.SpecVCC:
			return w.VCC
		case isa.SpecSCC:
			if w.SCC {
				return 1
			}
			return 0
		}
	}
	return 0
}

func (w *Warp) writeScalarReg(r isa.Reg, v uint64) {
	switch r.Class {
	case isa.RegScalar:
		w.SRegs[r.Index] = v
	case isa.RegSpecial:
		switch r.Index {
		case isa.SpecExec:
			w.Exec = v
		case isa.SpecVCC:
			w.VCC = v
		case isa.SpecSCC:
			w.SCC = v != 0
		}
	}
}

// readLaneOperand resolves a vector-context source for one lane (scalar
// registers broadcast; immediates are raw 32-bit patterns).
func (w *Warp) readLaneOperand(o isa.Operand, lane int) uint32 {
	if o.IsImm() {
		return o.Imm
	}
	if o.Reg.Class == isa.RegVector {
		return w.VRegs[o.Reg.Index][lane]
	}
	return uint32(w.readScalarReg(o.Reg))
}

// execute runs one instruction functionally and returns its effect.
func (d *Device) execute(w *Warp, in *isa.Instruction) (effect, error) {
	eff := effect{nextPC: -1}
	info := in.Op.Info()

	switch info.Class {
	case isa.ClassScalarALU:
		d.execScalarALU(w, in)
	case isa.ClassVectorALU:
		d.execVectorALU(w, in)
	case isa.ClassBranch:
		taken := false
		switch in.Op {
		case isa.SBranch:
			taken = true
		case isa.SCBranchSCC1:
			taken = w.SCC
		case isa.SCBranchSCC0:
			taken = !w.SCC
		case isa.SCBranchExecZ:
			taken = w.Exec == 0
		case isa.SCBranchExecNZ:
			taken = w.Exec != 0
		}
		if taken {
			eff.nextPC = in.Target
		}
	case isa.ClassSync:
		switch in.Op {
		case isa.SBarrier:
			eff.barrier = true
		case isa.SEndpgm:
			eff.endpgm = true
		}
	case isa.ClassScalarMem, isa.ClassVectorMem, isa.ClassAtomic, isa.ClassLDSMem:
		return d.execMemory(w, in)
	case isa.ClassContext:
		return d.execContext(w, in)
	default:
		return eff, d.fault(w, in, "unimplemented opcode class")
	}
	return eff, nil
}

func (d *Device) execScalarALU(w *Warp, in *isa.Instruction) {
	a := uint64(0)
	b := uint64(0)
	if in.NumSrcs() >= 1 {
		a = w.readScalarOperand(in.Srcs[0])
	}
	if in.NumSrcs() >= 2 {
		b = w.readScalarOperand(in.Srcs[1])
	}
	switch in.Op {
	case isa.SMov:
		w.writeScalarReg(in.Dst, a)
	case isa.SAdd:
		w.writeScalarReg(in.Dst, a+b)
	case isa.SSub:
		w.writeScalarReg(in.Dst, a-b)
	case isa.SMul:
		w.writeScalarReg(in.Dst, a*b)
	case isa.SAnd:
		w.writeScalarReg(in.Dst, a&b)
	case isa.SOr:
		w.writeScalarReg(in.Dst, a|b)
	case isa.SXor:
		w.writeScalarReg(in.Dst, a^b)
	case isa.SNot:
		w.writeScalarReg(in.Dst, ^a)
	case isa.SShl:
		w.writeScalarReg(in.Dst, a<<(b&63))
	case isa.SShr:
		w.writeScalarReg(in.Dst, a>>(b&63))
	case isa.SMin:
		w.writeScalarReg(in.Dst, uint64(min(int64(a), int64(b))))
	case isa.SMax:
		w.writeScalarReg(in.Dst, uint64(max(int64(a), int64(b))))
	case isa.SCmpEq:
		w.SCC = a == b
	case isa.SCmpNe:
		w.SCC = a != b
	case isa.SCmpLt:
		w.SCC = int64(a) < int64(b)
	case isa.SCmpGt:
		w.SCC = int64(a) > int64(b)
	case isa.SCmpLe:
		w.SCC = int64(a) <= int64(b)
	case isa.SCmpGe:
		w.SCC = int64(a) >= int64(b)
	case isa.SSetExec:
		w.Exec = a
	case isa.SGetExec:
		w.writeScalarReg(in.Dst, w.Exec)
	case isa.SAndSaveExecVCC:
		w.writeScalarReg(in.Dst, w.Exec)
		w.Exec &= w.VCC
	case isa.SOrExec:
		w.Exec |= a
	case isa.SGetVCC:
		w.writeScalarReg(in.Dst, w.VCC)
	case isa.SSetVCC:
		w.VCC = a
	}
}

func (d *Device) execVectorALU(w *Warp, in *isa.Instruction) {
	switch in.Op {
	case isa.VReadLane:
		lane := int(in.Imm0)
		w.writeScalarReg(in.Dst, uint64(w.VRegs[in.Srcs[0].Reg.Index][lane]))
		return
	case isa.VWriteLane:
		lane := int(in.Imm0)
		w.VRegs[in.Dst.Index][lane] = uint32(w.readScalarOperand(in.Srcs[0]))
		return
	}

	// Resolve each source once: immediates and scalar registers are
	// uniform across lanes, only vector registers vary. Hoisting this out
	// of the lane loop removes two branches and a register-file decode
	// per lane on the simulator's hottest path.
	var av, bv, cv []uint32
	var au, bu, cu uint32
	n := in.NumSrcs()
	if n >= 1 {
		av, au = w.resolveVectorOperand(in.Srcs[0])
	}
	if n >= 2 {
		bv, bu = w.resolveVectorOperand(in.Srcs[1])
	}
	if n >= 3 {
		cv, cu = w.resolveVectorOperand(in.Srcs[2])
	}
	writesVCC := in.Op.Info().WritesVCC
	var dst []uint32
	if !writesVCC {
		dst = w.VRegs[in.Dst.Index]
		// Fully-active warps (the overwhelmingly common case) take
		// specialized per-op loops with no per-lane mask test, operand
		// branch, or function call.
		if w.Exec == ^uint64(0) && execVALUFast(in.Op, dst, av, bv, au, bu) {
			return
		}
	}
	var newVCC uint64
	for lane := 0; lane < isa.WarpSize; lane++ {
		if w.Exec&(1<<uint(lane)) == 0 {
			continue
		}
		a, b, c := au, bu, cu
		if av != nil {
			a = av[lane]
		}
		if bv != nil {
			b = bv[lane]
		}
		if cv != nil {
			c = cv[lane]
		}
		if writesVCC {
			if vcmpLane(in.Op, a, b) {
				newVCC |= 1 << uint(lane)
			}
			continue
		}
		dst[lane] = valuLane(w, in, lane, a, b, c)
	}
	if writesVCC {
		w.VCC = newVCC
	}
}

// execVALUFast executes the hottest integer vector ops for a fully
// active EXEC mask with tight per-op loops over all lanes — the per-lane
// dispatch (valuLane) is the single most executed call in the simulator,
// and these loops replace it with straight-line slice arithmetic. It
// covers the two dominant operand shapes (vector op vector, vector op
// broadcast); anything else reports false and falls through to the
// generic masked loop. Results are bit-identical to valuLane by
// construction: each arm repeats the same expression.
func execVALUFast(op isa.Op, dst, av, bv []uint32, au, bu uint32) bool {
	dst = dst[:isa.WarpSize:isa.WarpSize]
	switch op {
	case isa.VLaneID:
		for l := range dst {
			dst[l] = uint32(l)
		}
		return true
	case isa.VMov:
		if av != nil {
			copy(dst, av[:isa.WarpSize])
		} else {
			for l := range dst {
				dst[l] = au
			}
		}
		return true
	}
	if av == nil {
		return false
	}
	av = av[:isa.WarpSize]
	if bv != nil {
		bv = bv[:isa.WarpSize]
		switch op {
		case isa.VAdd:
			for l := range dst {
				dst[l] = av[l] + bv[l]
			}
		case isa.VSub:
			for l := range dst {
				dst[l] = av[l] - bv[l]
			}
		case isa.VMul:
			for l := range dst {
				dst[l] = av[l] * bv[l]
			}
		case isa.VAnd:
			for l := range dst {
				dst[l] = av[l] & bv[l]
			}
		case isa.VOr:
			for l := range dst {
				dst[l] = av[l] | bv[l]
			}
		case isa.VXor:
			for l := range dst {
				dst[l] = av[l] ^ bv[l]
			}
		case isa.VShl:
			for l := range dst {
				dst[l] = av[l] << (bv[l] & 31)
			}
		case isa.VShr:
			for l := range dst {
				dst[l] = av[l] >> (bv[l] & 31)
			}
		default:
			return false
		}
		return true
	}
	switch op {
	case isa.VAdd:
		for l := range dst {
			dst[l] = av[l] + bu
		}
	case isa.VSub:
		for l := range dst {
			dst[l] = av[l] - bu
		}
	case isa.VMul:
		for l := range dst {
			dst[l] = av[l] * bu
		}
	case isa.VAnd:
		for l := range dst {
			dst[l] = av[l] & bu
		}
	case isa.VOr:
		for l := range dst {
			dst[l] = av[l] | bu
		}
	case isa.VXor:
		for l := range dst {
			dst[l] = av[l] ^ bu
		}
	case isa.VShl:
		sh := bu & 31
		for l := range dst {
			dst[l] = av[l] << sh
		}
	case isa.VShr:
		sh := bu & 31
		for l := range dst {
			dst[l] = av[l] >> sh
		}
	default:
		return false
	}
	return true
}

// resolveVectorOperand splits a vector-context source into its per-lane
// slice (vector registers) or its lane-uniform value (immediates and
// broadcast scalar registers).
func (w *Warp) resolveVectorOperand(o isa.Operand) ([]uint32, uint32) {
	if o.IsImm() {
		return nil, o.Imm
	}
	if o.Reg.Class == isa.RegVector {
		return w.VRegs[o.Reg.Index], 0
	}
	return nil, uint32(w.readScalarReg(o.Reg))
}

func vcmpLane(op isa.Op, a, b uint32) bool {
	switch op {
	case isa.VCmpEqI:
		return a == b
	case isa.VCmpLtI:
		return int32(a) < int32(b)
	case isa.VCmpGtI:
		return int32(a) > int32(b)
	case isa.VCmpLtF:
		return math.Float32frombits(a) < math.Float32frombits(b)
	case isa.VCmpGtF:
		return math.Float32frombits(a) > math.Float32frombits(b)
	case isa.VCmpLeF:
		return math.Float32frombits(a) <= math.Float32frombits(b)
	}
	return false
}

func valuLane(w *Warp, in *isa.Instruction, lane int, a, b, c uint32) uint32 {
	fa := func() float32 { return math.Float32frombits(a) }
	fb := func() float32 { return math.Float32frombits(b) }
	fc := func() float32 { return math.Float32frombits(c) }
	f := math.Float32bits
	switch in.Op {
	case isa.VMov:
		return a
	case isa.VAdd:
		return a + b
	case isa.VSub:
		return a - b
	case isa.VMul:
		return a * b
	case isa.VMad:
		return a*b + c
	case isa.VAnd:
		return a & b
	case isa.VOr:
		return a | b
	case isa.VXor:
		return a ^ b
	case isa.VNot:
		return ^a
	case isa.VShl:
		return a << (b & 31)
	case isa.VShr:
		return a >> (b & 31)
	case isa.VMin:
		return uint32(min(int32(a), int32(b)))
	case isa.VMax:
		return uint32(max(int32(a), int32(b)))
	case isa.VLaneID:
		return uint32(lane)
	case isa.VAddF:
		return f(fa() + fb())
	case isa.VSubF:
		return f(fa() - fb())
	case isa.VMulF:
		return f(fa() * fb())
	case isa.VMadF:
		return f(fa()*fb() + fc())
	case isa.VMinF:
		return f(float32(math.Min(float64(fa()), float64(fb()))))
	case isa.VMaxF:
		return f(float32(math.Max(float64(fa()), float64(fb()))))
	case isa.VRcpF:
		return f(1 / fa())
	case isa.VSqrtF:
		return f(float32(math.Sqrt(float64(fa()))))
	case isa.VAbsF:
		return f(float32(math.Abs(float64(fa()))))
	case isa.VFloorF:
		return f(float32(math.Floor(float64(fa()))))
	case isa.VCvtI2F:
		return f(float32(int32(a)))
	case isa.VCvtF2I:
		return uint32(int32(fa()))
	case isa.VCndMask:
		if w.VCC&(1<<uint(lane)) != 0 {
			return b
		}
		return a
	}
	return 0
}

func (d *Device) execMemory(w *Warp, in *isa.Instruction) (effect, error) {
	eff := effect{nextPC: -1}
	switch in.Op {
	case isa.SGLoad:
		addr := uint32(w.readScalarOperand(in.Srcs[0])) + uint32(in.Imm0)
		v, err := d.loadGlobal(w, in, addr)
		if err != nil {
			return eff, err
		}
		w.writeScalarReg(in.Dst, uint64(v))
		eff.memBytes = 4
	case isa.SGStore:
		addr := uint32(w.readScalarOperand(in.Srcs[0])) + uint32(in.Imm0)
		if err := d.storeGlobal(w, in, addr, uint32(w.readScalarOperand(in.Srcs[1]))); err != nil {
			return eff, err
		}
		eff.memBytes = 4
	case isa.VGLoad, isa.VGStore, isa.VGAtomicAdd:
		addrV, addrU := w.resolveVectorOperand(in.Srcs[0])
		var valV []uint32
		var valU uint32
		if in.Op != isa.VGLoad {
			valV, valU = w.resolveVectorOperand(in.Srcs[1])
		}
		lanes := 0
		for lane := 0; lane < isa.WarpSize; lane++ {
			if w.Exec&(1<<uint(lane)) == 0 {
				continue
			}
			lanes++
			addr := addrU + uint32(in.Imm0)
			if addrV != nil {
				addr = addrV[lane] + uint32(in.Imm0)
			}
			val := valU
			if valV != nil {
				val = valV[lane]
			}
			switch in.Op {
			case isa.VGLoad:
				v, err := d.loadGlobal(w, in, addr)
				if err != nil {
					return eff, err
				}
				w.VRegs[in.Dst.Index][lane] = v
			case isa.VGStore:
				if err := d.storeGlobal(w, in, addr, val); err != nil {
					return eff, err
				}
			case isa.VGAtomicAdd:
				old, err := d.loadGlobal(w, in, addr)
				if err != nil {
					return eff, err
				}
				if err := d.storeGlobal(w, in, addr, old+val); err != nil {
					return eff, err
				}
			}
		}
		eff.memBytes = max(lanes*4, 32)
		if in.Op == isa.VGAtomicAdd {
			eff.memBytes *= 2 // read + write
		}
	case isa.VLLoad, isa.VLStore:
		addrV, addrU := w.resolveVectorOperand(in.Srcs[0])
		var valV []uint32
		var valU uint32
		if in.Op == isa.VLStore {
			valV, valU = w.resolveVectorOperand(in.Srcs[1])
		}
		lanes := 0
		for lane := 0; lane < isa.WarpSize; lane++ {
			if w.Exec&(1<<uint(lane)) == 0 {
				continue
			}
			lanes++
			addr := addrU + uint32(in.Imm0)
			if addrV != nil {
				addr = addrV[lane] + uint32(in.Imm0)
			}
			idx := int(addr) >> 2
			if addr%4 != 0 || idx < 0 || idx >= len(w.LDS.Data) {
				return eff, d.fault(w, in, "LDS address %#x out of range (lds %d bytes)", addr, len(w.LDS.Data)*4)
			}
			if in.Op == isa.VLLoad {
				w.VRegs[in.Dst.Index][lane] = w.LDS.Data[idx]
			} else {
				val := valU
				if valV != nil {
					val = valV[lane]
				}
				w.LDS.Data[idx] = val
			}
		}
		eff.ldsBytes = lanes * 4
	}
	return eff, nil
}

func (d *Device) loadGlobal(w *Warp, in *isa.Instruction, addr uint32) (uint32, error) {
	idx := int(addr) >> 2
	if addr%4 != 0 || idx < 0 || idx >= len(d.Mem) {
		return 0, d.fault(w, in, "global address %#x out of range", addr)
	}
	return d.Mem[idx], nil
}

func (d *Device) storeGlobal(w *Warp, in *isa.Instruction, addr uint32, v uint32) error {
	idx := int(addr) >> 2
	if addr%4 != 0 || idx < 0 || idx >= len(d.Mem) {
		return d.fault(w, in, "global address %#x out of range", addr)
	}
	d.Mem[idx] = v
	return nil
}

func (d *Device) execContext(w *Warp, in *isa.Instruction) (effect, error) {
	eff := effect{nextPC: -1}
	ctx := w.ctx
	if ctx == nil && in.Op != isa.CtxExit && in.Op != isa.CtxResume {
		return eff, d.fault(w, in, "context op without context buffer")
	}
	slot := in.Imm0
	switch in.Op {
	case isa.CtxSaveV:
		vals := make([]uint32, isa.WarpSize)
		copy(vals, w.VRegs[in.Srcs[0].Reg.Index])
		ctx.VSlots[slot] = vals
		eff.memBytes = 4 * isa.WarpSize
	case isa.CtxLoadV:
		vals, ok := ctx.VSlots[slot]
		if !ok {
			return eff, d.fault(w, in, "context slot v%d never saved", slot)
		}
		copy(w.VRegs[in.Dst.Index], vals)
		eff.memBytes = 4 * isa.WarpSize
	case isa.CtxSaveS:
		ctx.SSlots[slot] = w.readScalarReg(in.Srcs[0].Reg)
		eff.memBytes = 4
	case isa.CtxLoadS:
		v, ok := ctx.SSlots[slot]
		if !ok {
			return eff, d.fault(w, in, "context slot s%d never saved", slot)
		}
		w.writeScalarReg(in.Dst, v)
		eff.memBytes = 4
	case isa.CtxSaveSpec:
		ctx.Specs[slot] = w.readScalarReg(in.Srcs[0].Reg)
		eff.memBytes = in.Srcs[0].Reg.ContextBytes()
	case isa.CtxLoadSpec:
		v, ok := ctx.Specs[slot]
		if !ok {
			return eff, d.fault(w, in, "context slot spec%d never saved", slot)
		}
		w.writeScalarReg(in.Dst, v)
		eff.memBytes = in.Dst.ContextBytes()
	case isa.CtxSaveLDS:
		lo, hi := w.LDSShareLo>>2, w.LDSShareHi>>2
		share := make([]uint32, hi-lo)
		copy(share, w.LDS.Data[lo:hi])
		ctx.LDS = share
		eff.memBytes = (hi - lo) * 4
	case isa.CtxLoadLDS:
		lo, hi := w.LDSShareLo>>2, w.LDSShareHi>>2
		if len(ctx.LDS) != hi-lo {
			// A hook-time save (a CKPT checkpoint, an SM-flush entry
			// snapshot) taken before the signal covers the warp's
			// launch-time slice; coverOrphanLDSShares may have widened the
			// coverage since. Restore the save into the slice it came from.
			own := w.Prog.LDSBytes / len(w.launch.blocks[w.BlockID].warps) >> 2
			if len(ctx.LDS) != own {
				return eff, d.fault(w, in, "LDS share size mismatch: saved %d words, share %d", len(ctx.LDS), hi-lo)
			}
			lo, hi = w.WarpInBlk*own, (w.WarpInBlk+1)*own
		}
		copy(w.LDS.Data[lo:hi], ctx.LDS)
		eff.memBytes = (hi - lo) * 4
	case isa.CtxSavePC:
		ctx.PC = in.Target
		ctx.DynCount = w.DynCount
		ctx.Barriers = w.BarrierCount
		eff.memBytes = 8
	case isa.CtxExit:
		eff.ctxExit = true
	case isa.CtxResume:
		eff.ctxResume = true
		eff.resumePC = in.Target
	}
	return eff, nil
}
