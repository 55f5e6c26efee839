package isa

import (
	"fmt"
	"strings"

	"ctxback/internal/artifact"
)

// Binary program encoding. The paper's runtime transfers kernel code and
// the dedicated preemption routines to device memory (§IV-A); this fixed
// 40-byte-per-instruction format is the concrete representation the
// simulator's host side uses for that transfer, and what the routine
// size/sharing statistics are computed from.
//
// Layout (little endian):
//
//	header:  magic "CTXB" | version u16 | nameLen u16 | name bytes |
//	         numVRegs u32 | numSRegs u32 | ldsBytes u32 | nInstr u32
//	instr:   op u16 | flags u8 | memSpace i8 |
//	         dst u32 | imm0 i32 | target i32 |
//	         3 x (kind u8, pad u8[3], payload u32)
const (
	encMagic       = "CTXB"
	encVersion     = 1
	InstrWordBytes = 40
)

const (
	flagNoOverflow = 1 << 0
)

func encodeReg(r Reg) uint32 { return uint32(r.Class)<<16 | uint32(r.Index) }

func decodeReg(v uint32) Reg {
	return Reg{Class: RegClass(v >> 16), Index: uint16(v & 0xFFFF)}
}

// EncodeProgram serializes p.
func EncodeProgram(p *Program) []byte {
	w := artifact.NewWriter()
	w.Raw([]byte(encMagic))
	w.U16(encVersion)
	w.U16(uint16(len(p.Name)))
	w.Raw([]byte(p.Name))
	w.U32(uint32(p.NumVRegs))
	w.U32(uint32(p.NumSRegs))
	w.U32(uint32(p.LDSBytes))
	writeInstrs(w, p.Instrs)
	return w.Data()
}

// EncodeRoutine serializes a bare instruction sequence (a dedicated
// preemption or resume routine). Used for transfer-size accounting.
func EncodeRoutine(instrs []Instruction) []byte {
	w := artifact.NewWriter()
	writeInstrs(w, instrs)
	return w.Data()
}

func writeInstrs(w *artifact.Writer, instrs []Instruction) {
	w.U32(uint32(len(instrs)))
	for i := range instrs {
		in := &instrs[i]
		w.U16(uint16(in.Op))
		var flags uint8
		if in.NoOverflow {
			flags |= flagNoOverflow
		}
		w.U8(flags)
		w.U8(uint8(in.MemSpace))
		w.U32(encodeReg(in.Dst))
		w.U32(uint32(in.Imm0))
		w.I32(in.Target)
		for s := 0; s < MaxSrcs; s++ {
			w.Raw([]byte{uint8(in.Srcs[s].Kind), 0, 0, 0})
			payload := in.Srcs[s].Imm
			if in.Srcs[s].Kind == OperandReg {
				payload = encodeReg(in.Srcs[s].Reg)
			}
			w.U32(payload)
		}
	}
}

// DecodeProgram parses an EncodeProgram buffer.
func DecodeProgram(data []byte) (*Program, error) {
	r := artifact.NewReader(data)
	if magic := string(r.Raw(len(encMagic))); magic != encMagic {
		return nil, fmt.Errorf("isa: bad magic %q", magic)
	}
	if v := r.U16(); v != encVersion {
		return nil, fmt.Errorf("isa: unsupported version %d", v)
	}
	name := string(r.Raw(int(r.U16())))
	p := &Program{
		Name:     name,
		NumVRegs: int(r.U32()),
		NumSRegs: int(r.U32()),
		LDSBytes: int(r.U32()),
		Labels:   map[string]int{},
	}
	var err error
	if p.Instrs, err = readInstrs(r); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("isa: decoded program invalid: %w", err)
	}
	return p, nil
}

// DecodeRoutine parses an EncodeRoutine buffer back into a bare
// instruction sequence. Inverse of EncodeRoutine: device snapshots use
// the pair to round-trip the routine stream of a warp captured mid
// preemption or resume.
func DecodeRoutine(data []byte) ([]Instruction, error) {
	return readInstrs(artifact.NewReader(data))
}

// readInstrs decodes an instruction count and that many instruction
// words, which must end the buffer. The count is bounded by the bytes
// left, so a corrupt count fails before anything is allocated for it.
func readInstrs(r *artifact.Reader) ([]Instruction, error) {
	instrs := make([]Instruction, r.Count(InstrWordBytes))
	for i := range instrs {
		readInstr(r, &instrs[i])
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("isa: instr %d: %w", i, err)
		}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("isa: %w", err)
	}
	return instrs, nil
}

// readInstr decodes one instruction word; a failure latches on r.
func readInstr(r *artifact.Reader, in *Instruction) {
	in.Op = Op(r.U16())
	if in.Op == OpInvalid || in.Op >= opCount {
		r.Fail(fmt.Errorf("bad opcode %d", in.Op))
	}
	in.NoOverflow = r.U8()&flagNoOverflow != 0
	in.MemSpace = int16(int8(r.U8()))
	in.Dst = decodeReg(r.U32())
	in.Imm0 = int32(r.U32())
	in.Target = r.I32()
	for s := 0; s < MaxSrcs; s++ {
		kind := OperandKind(r.U8())
		r.Raw(3)
		payload := r.U32()
		switch kind {
		case OperandNone:
			in.Srcs[s] = Operand{}
		case OperandReg:
			in.Srcs[s] = Operand{Kind: OperandReg, Reg: decodeReg(payload)}
		case OperandImm:
			in.Srcs[s] = Operand{Kind: OperandImm, Imm: payload}
		default:
			r.Fail(fmt.Errorf("bad operand kind %d", kind))
		}
	}
}

// RoutineBytes returns the device-memory footprint of a routine when
// transferred (paper §IV-A's storage-cost accounting).
func RoutineBytes(instrs []Instruction) int { return 4 + len(instrs)*InstrWordBytes }

// FormatRoutine renders a routine for human inspection.
func FormatRoutine(instrs []Instruction) string {
	var b strings.Builder
	for i := range instrs {
		fmt.Fprintf(&b, "%4d:  %s\n", i, instrs[i].String())
	}
	return b.String()
}
