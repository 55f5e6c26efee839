package isa

import "fmt"

// Op is an opcode.
type Op uint16

// OpClass groups opcodes by execution resource and analysis behaviour.
type OpClass uint8

const (
	ClassInvalid OpClass = iota
	ClassScalarALU
	ClassVectorALU
	ClassBranch
	ClassScalarMem // scalar loads/stores to global memory
	ClassVectorMem // per-lane loads/stores to global memory
	ClassLDSMem    // per-lane loads/stores to shared memory (LDS)
	ClassAtomic    // read-modify-write global memory
	ClassSync      // barrier / nop / endpgm
	ClassContext   // context save/restore (generated routines only)
)

// Opcodes. Scalar ops read/write 64-bit per-warp registers; vector ops
// operate per lane under the EXEC mask. Integer ops use 32-bit wrapping
// arithmetic on the low 32 bits of scalar registers and full 32-bit lanes
// of vector registers. F-suffixed ops are IEEE-754 binary32.
const (
	OpInvalid Op = iota

	// Scalar ALU: dst(s), src0, [src1]; srcs are scalar regs or immediates.
	SMov
	SAdd
	SSub
	SMul
	SAnd
	SOr
	SXor
	SNot
	SShl
	SShr
	SMin
	SMax

	// Scalar compare: src0, src1 -> SCC.
	SCmpEq
	SCmpNe
	SCmpLt
	SCmpGt
	SCmpLe
	SCmpGe

	// EXEC manipulation.
	SSetExec        // exec = src0 (scalar reg or imm)
	SGetExec        // dst(s) = exec
	SAndSaveExecVCC // dst(s) = exec; exec &= vcc
	SOrExec         // exec |= src0
	SGetVCC         // dst(s) = vcc
	SSetVCC         // vcc = src0

	// Control flow. Target is held in Instruction.Target.
	SBranch
	SCBranchSCC1
	SCBranchSCC0
	SCBranchExecZ
	SCBranchExecNZ
	SBarrier
	SEndpgm
	SNop

	// Vector ALU (integer): dst(v), srcs are vector/scalar regs or imms.
	VMov
	VAdd
	VSub
	VMul
	VMad // dst = src0*src1 + src2
	VAnd
	VOr
	VXor
	VNot
	VShl
	VShr
	VMin
	VMax
	VLaneID // dst = lane index (0..WarpSize-1)

	// Vector ALU (float32).
	VAddF
	VSubF
	VMulF
	VMadF
	VMinF
	VMaxF
	VRcpF
	VSqrtF
	VAbsF
	VFloorF
	VCvtI2F
	VCvtF2I

	// Vector compare: src0, src1 -> VCC (per-lane, under EXEC).
	VCmpEqI
	VCmpLtI
	VCmpGtI
	VCmpLtF
	VCmpGtF
	VCmpLeF

	// Per-lane select: dst = vcc[lane] ? src1 : src0.
	VCndMask

	// Cross-file moves.
	VReadLane  // dst(s) = src0(v)[src1 imm lane]
	VWriteLane // dst(v)[src1 imm lane] = src0(s)

	// Memory. Addresses are byte addresses, 4-aligned.
	SGLoad  // dst(s) = mem32[src0(s) + imm]
	SGStore // mem32[src0(s) + imm] = src1(s)
	VGLoad  // dst(v)[l] = mem32[src0(v)[l] + imm]
	VGStore // mem32[src0(v)[l] + imm] = src1(v)[l]
	VGAtomicAdd
	VLLoad  // LDS: dst(v)[l] = lds32[src0(v)[l] + imm]
	VLStore // LDS: lds32[src0(v)[l] + imm] = src1(v)[l]

	// Context save/restore. Only generated preemption/resume routines use
	// these; Imm0 of the instruction is the context-buffer slot offset.
	CtxSaveV    // save src0(v) (WarpSize*4 bytes)
	CtxLoadV    // load dst(v)
	CtxSaveS    // save src0(s) (4 bytes)
	CtxLoadS    // load dst(s)
	CtxSaveSpec // save src0(special)
	CtxLoadSpec // load dst(special)
	CtxSaveLDS  // save Imm0 bytes of LDS (warp's block share)
	CtxLoadLDS
	CtxSavePC // save resume PC (Target) — terminates a preemption routine
	CtxExit   // release the warp slot (end of preemption routine)
	CtxResume // jump back to Target (end of resume routine)

	opCount
)

// OpInfo describes the static properties of an opcode.
type OpInfo struct {
	Name    string
	Class   OpClass
	NumSrc  int
	HasDst  bool
	DstVec  bool // dst is a vector register (else scalar/special)
	HasTgt  bool // uses Instruction.Target (branch / resume)
	HasImm  bool // uses Instruction.Imm0 (memory offset / lane / slot)
	Commut  bool // src0 and src1 are interchangeable
	IsFloat bool

	// Implicit register effects beyond explicit operands.
	ReadsExec  bool
	WritesExec bool
	ReadsVCC   bool
	WritesVCC  bool
	ReadsSCC   bool
	WritesSCC  bool

	// IssueCycles is the cost charged by the timing model for occupying
	// the issue/ALU pipeline (memory latency is modeled separately).
	IssueCycles int

	// Inverse is the opcode that reverts this instruction when it has the
	// r' = op(r, x) form (OpInvalid when irreversible). Shift inverses
	// additionally require Instruction.NoOverflow.
	Inverse      Op
	NeedsNoOvf   bool // inverse valid only with NoOverflow flag
	SelfOperand0 bool // reversible when dst == src0
	SelfOperand1 bool // reversible when dst == src1
}

var opInfos [opCount]OpInfo

func reg(op Op, info OpInfo) {
	if opInfos[op].Name != "" {
		panic("isa: duplicate opcode registration " + info.Name)
	}
	opInfos[op] = info
}

func init() {
	salu := func(op Op, name string, nsrc int, commut bool) {
		reg(op, OpInfo{Name: name, Class: ClassScalarALU, NumSrc: nsrc, HasDst: true, Commut: commut, IssueCycles: 1})
	}
	salu(SMov, "s_mov", 1, false)
	salu(SAdd, "s_add", 2, true)
	salu(SSub, "s_sub", 2, false)
	salu(SMul, "s_mul", 2, true)
	salu(SAnd, "s_and", 2, true)
	salu(SOr, "s_or", 2, true)
	salu(SXor, "s_xor", 2, true)
	salu(SNot, "s_not", 1, false)
	salu(SShl, "s_shl", 2, false)
	salu(SShr, "s_shr", 2, false)
	salu(SMin, "s_min", 2, true)
	salu(SMax, "s_max", 2, true)

	scmp := func(op Op, name string) {
		reg(op, OpInfo{Name: name, Class: ClassScalarALU, NumSrc: 2, WritesSCC: true, IssueCycles: 1})
	}
	scmp(SCmpEq, "s_cmp_eq")
	scmp(SCmpNe, "s_cmp_ne")
	scmp(SCmpLt, "s_cmp_lt")
	scmp(SCmpGt, "s_cmp_gt")
	scmp(SCmpLe, "s_cmp_le")
	scmp(SCmpGe, "s_cmp_ge")

	reg(SSetExec, OpInfo{Name: "s_setexec", Class: ClassScalarALU, NumSrc: 1, WritesExec: true, IssueCycles: 1})
	reg(SGetExec, OpInfo{Name: "s_getexec", Class: ClassScalarALU, HasDst: true, ReadsExec: true, IssueCycles: 1})
	reg(SAndSaveExecVCC, OpInfo{Name: "s_and_saveexec_vcc", Class: ClassScalarALU, HasDst: true, ReadsExec: true, WritesExec: true, ReadsVCC: true, IssueCycles: 1})
	reg(SOrExec, OpInfo{Name: "s_or_exec", Class: ClassScalarALU, NumSrc: 1, ReadsExec: true, WritesExec: true, IssueCycles: 1})
	reg(SGetVCC, OpInfo{Name: "s_getvcc", Class: ClassScalarALU, HasDst: true, ReadsVCC: true, IssueCycles: 1})
	reg(SSetVCC, OpInfo{Name: "s_setvcc", Class: ClassScalarALU, NumSrc: 1, WritesVCC: true, IssueCycles: 1})

	reg(SBranch, OpInfo{Name: "s_branch", Class: ClassBranch, HasTgt: true, IssueCycles: 1})
	reg(SCBranchSCC1, OpInfo{Name: "s_cbranch_scc1", Class: ClassBranch, HasTgt: true, ReadsSCC: true, IssueCycles: 1})
	reg(SCBranchSCC0, OpInfo{Name: "s_cbranch_scc0", Class: ClassBranch, HasTgt: true, ReadsSCC: true, IssueCycles: 1})
	reg(SCBranchExecZ, OpInfo{Name: "s_cbranch_execz", Class: ClassBranch, HasTgt: true, ReadsExec: true, IssueCycles: 1})
	reg(SCBranchExecNZ, OpInfo{Name: "s_cbranch_execnz", Class: ClassBranch, HasTgt: true, ReadsExec: true, IssueCycles: 1})
	reg(SBarrier, OpInfo{Name: "s_barrier", Class: ClassSync, IssueCycles: 1})
	reg(SEndpgm, OpInfo{Name: "s_endpgm", Class: ClassSync, IssueCycles: 1})
	reg(SNop, OpInfo{Name: "s_nop", Class: ClassSync, IssueCycles: 1})

	valu := func(op Op, name string, nsrc int, commut, isFloat bool, cycles int) {
		reg(op, OpInfo{Name: name, Class: ClassVectorALU, NumSrc: nsrc, HasDst: true, DstVec: true, Commut: commut, IsFloat: isFloat, ReadsExec: true, IssueCycles: cycles})
	}
	valu(VMov, "v_mov", 1, false, false, 1)
	valu(VAdd, "v_add", 2, true, false, 1)
	valu(VSub, "v_sub", 2, false, false, 1)
	valu(VMul, "v_mul", 2, true, false, 4)
	valu(VMad, "v_mad", 3, false, false, 4)
	valu(VAnd, "v_and", 2, true, false, 1)
	valu(VOr, "v_or", 2, true, false, 1)
	valu(VXor, "v_xor", 2, true, false, 1)
	valu(VNot, "v_not", 1, false, false, 1)
	valu(VShl, "v_shl", 2, false, false, 1)
	valu(VShr, "v_shr", 2, false, false, 1)
	valu(VMin, "v_min", 2, true, false, 1)
	valu(VMax, "v_max", 2, true, false, 1)
	valu(VLaneID, "v_laneid", 0, false, false, 1)

	valu(VAddF, "v_add_f32", 2, true, true, 1)
	valu(VSubF, "v_sub_f32", 2, false, true, 1)
	valu(VMulF, "v_mul_f32", 2, true, true, 1)
	valu(VMadF, "v_mad_f32", 3, false, true, 1)
	valu(VMinF, "v_min_f32", 2, true, true, 1)
	valu(VMaxF, "v_max_f32", 2, true, true, 1)
	valu(VRcpF, "v_rcp_f32", 1, false, true, 4)
	valu(VSqrtF, "v_sqrt_f32", 1, false, true, 4)
	valu(VAbsF, "v_abs_f32", 1, false, true, 1)
	valu(VFloorF, "v_floor_f32", 1, false, true, 1)
	valu(VCvtI2F, "v_cvt_i2f", 1, false, true, 1)
	valu(VCvtF2I, "v_cvt_f2i", 1, false, true, 1)

	vcmp := func(op Op, name string, isFloat bool) {
		reg(op, OpInfo{Name: name, Class: ClassVectorALU, NumSrc: 2, ReadsExec: true, WritesVCC: true, IsFloat: isFloat, IssueCycles: 1})
	}
	vcmp(VCmpEqI, "v_cmp_eq_i32", false)
	vcmp(VCmpLtI, "v_cmp_lt_i32", false)
	vcmp(VCmpGtI, "v_cmp_gt_i32", false)
	vcmp(VCmpLtF, "v_cmp_lt_f32", true)
	vcmp(VCmpGtF, "v_cmp_gt_f32", true)
	vcmp(VCmpLeF, "v_cmp_le_f32", true)

	reg(VCndMask, OpInfo{Name: "v_cndmask", Class: ClassVectorALU, NumSrc: 2, HasDst: true, DstVec: true, ReadsExec: true, ReadsVCC: true, IssueCycles: 1})
	reg(VReadLane, OpInfo{Name: "v_readlane", Class: ClassVectorALU, NumSrc: 1, HasDst: true, HasImm: true, IssueCycles: 1})
	reg(VWriteLane, OpInfo{Name: "v_writelane", Class: ClassVectorALU, NumSrc: 1, HasDst: true, DstVec: true, HasImm: true, IssueCycles: 1})

	reg(SGLoad, OpInfo{Name: "s_gload", Class: ClassScalarMem, NumSrc: 1, HasDst: true, HasImm: true, IssueCycles: 4})
	reg(SGStore, OpInfo{Name: "s_gstore", Class: ClassScalarMem, NumSrc: 2, HasImm: true, IssueCycles: 4})
	reg(VGLoad, OpInfo{Name: "v_gload", Class: ClassVectorMem, NumSrc: 1, HasDst: true, DstVec: true, HasImm: true, ReadsExec: true, IssueCycles: 4})
	reg(VGStore, OpInfo{Name: "v_gstore", Class: ClassVectorMem, NumSrc: 2, HasImm: true, ReadsExec: true, IssueCycles: 4})
	reg(VGAtomicAdd, OpInfo{Name: "v_gatomic_add", Class: ClassAtomic, NumSrc: 2, HasImm: true, ReadsExec: true, IssueCycles: 8})
	reg(VLLoad, OpInfo{Name: "v_lload", Class: ClassLDSMem, NumSrc: 1, HasDst: true, DstVec: true, HasImm: true, ReadsExec: true, IssueCycles: 2})
	reg(VLStore, OpInfo{Name: "v_lstore", Class: ClassLDSMem, NumSrc: 2, HasImm: true, ReadsExec: true, IssueCycles: 2})

	reg(CtxSaveV, OpInfo{Name: "ctx_save_v", Class: ClassContext, NumSrc: 1, HasImm: true, IssueCycles: 4})
	reg(CtxLoadV, OpInfo{Name: "ctx_load_v", Class: ClassContext, HasDst: true, DstVec: true, HasImm: true, IssueCycles: 4})
	reg(CtxSaveS, OpInfo{Name: "ctx_save_s", Class: ClassContext, NumSrc: 1, HasImm: true, IssueCycles: 4})
	reg(CtxLoadS, OpInfo{Name: "ctx_load_s", Class: ClassContext, HasDst: true, HasImm: true, IssueCycles: 4})
	reg(CtxSaveSpec, OpInfo{Name: "ctx_save_spec", Class: ClassContext, NumSrc: 1, HasImm: true, IssueCycles: 4})
	reg(CtxLoadSpec, OpInfo{Name: "ctx_load_spec", Class: ClassContext, HasDst: true, HasImm: true, IssueCycles: 4})
	reg(CtxSaveLDS, OpInfo{Name: "ctx_save_lds", Class: ClassContext, HasImm: true, IssueCycles: 4})
	reg(CtxLoadLDS, OpInfo{Name: "ctx_load_lds", Class: ClassContext, HasImm: true, IssueCycles: 4})
	reg(CtxSavePC, OpInfo{Name: "ctx_save_pc", Class: ClassContext, HasTgt: true, IssueCycles: 4})
	reg(CtxExit, OpInfo{Name: "ctx_exit", Class: ClassContext, IssueCycles: 1})
	reg(CtxResume, OpInfo{Name: "ctx_resume", Class: ClassContext, HasTgt: true, IssueCycles: 1})

	// Reversibility (paper §III-C): r' = op(r, x) can be reverted when op
	// has an inverse. Integer add/sub/xor/not always; shifts only when the
	// producer flagged the instruction NoOverflow (address arithmetic).
	// Float ops are never reversible (rounding).
	setInv := func(op, inv Op, ovf, p0, p1 bool) {
		opInfos[op].Inverse = inv
		opInfos[op].NeedsNoOvf = ovf
		opInfos[op].SelfOperand0 = p0
		opInfos[op].SelfOperand1 = p1
	}
	setInv(VAdd, VSub, false, true, true)
	setInv(VSub, VAdd, false, true, true)
	setInv(VXor, VXor, false, true, true)
	setInv(VNot, VNot, false, true, false)
	setInv(VShl, VShr, true, true, false)
	setInv(SAdd, SSub, false, true, true)
	setInv(SSub, SAdd, false, true, true)
	setInv(SXor, SXor, false, true, true)
	setInv(SNot, SNot, false, true, false)
	setInv(SShl, SShr, true, true, false)

	for op := Op(1); op < opCount; op++ {
		if opInfos[op].Name == "" {
			panic(fmt.Sprintf("isa: opcode %d missing registration", op))
		}
	}
	buildNameIndex()
}

// Info returns the static description of op.
func (op Op) Info() *OpInfo {
	if op == OpInvalid || op >= opCount {
		return &opInfos[OpInvalid]
	}
	return &opInfos[op]
}

// String returns the mnemonic.
func (op Op) String() string {
	info := op.Info()
	if info.Name == "" {
		return fmt.Sprintf("op(%d)", uint16(op))
	}
	return info.Name
}

var opByName map[string]Op

func buildNameIndex() {
	opByName = make(map[string]Op, opCount)
	for op := Op(1); op < opCount; op++ {
		opByName[opInfos[op].Name] = op
	}
}

// OpByName resolves a mnemonic; ok is false for unknown names.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}
