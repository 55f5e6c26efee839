// Package snapshot serializes whole-device simulator state into a
// deterministic, byte-stable, checksummed wire format and restores it —
// synchronously or speculatively — onto warm pre-initialized device
// shells. It is the paper's context-flashback idea scaled from one warp
// to a whole device: checkpointing, migration, and fault-failover become
// ordinary scheduler moves (see internal/sched's failover driver).
//
// Wire format (little endian):
//
//	header:   magic "CSNP" | version u16 | epoch u64
//	section:  id u16 | payloadLen u32 | payload | fnv1a64(payload) u64
//
// Sections appear exactly once, in fixed order, with the bulk memory
// image last: meta, programs, launches, SMs, episodes, memory. A
// speculative decode (DecodeSpeculative) verifies everything except the
// trailing memory checksum and hands back a deferred validator — the
// PhoenixOS-style restore starts replaying against the live-in set
// while the bulk section is, in effect, still streaming in; the
// validator (plus the sim resume-integrity oracle) decides afterward
// whether the speculation was sound.
//
// Every encoded collection is emitted from slice order or explicitly
// sorted keys (SavedContext register slots), and the decoder rejects
// non-canonical inputs (unsorted slot keys, non-0/1 booleans,
// non-canonical routine encodings, trailing bytes), so encode → decode
// → encode is byte-identical — enforced by TestRepeatEncode and
// FuzzSnapshotRoundTrip.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"ctxback/internal/isa"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

const (
	magic   = "CSNP"
	version = 1
	// wireShards is the meta section's shard-width field. The simulator
	// has a single serial run loop, so the field is always 1; it stays
	// on the wire so checkpoint bytes (and their sizes) are unchanged,
	// and the decoder refuses any other value.
	wireShards = 1
)

// Section ids, in required stream order.
const (
	secMeta uint16 = 1 + iota
	secProgs
	secLaunches
	secSMs
	secEpisodes
	secMem
)

var secNames = map[uint16]string{
	secMeta: "meta", secProgs: "programs", secLaunches: "launches",
	secSMs: "sms", secEpisodes: "episodes", secMem: "memory",
}

// Snapshot pairs a device state with the checkpoint epoch that produced
// it. Epochs order checkpoints of the same job; restore validates the
// epoch against the expected one so a stale image can never silently
// revive an older version of the job.
type Snapshot struct {
	Epoch uint64
	State *sim.DeviceState
}

// VerifyEpoch returns a StaleError unless the snapshot carries epoch
// want.
func (s *Snapshot) VerifyEpoch(want uint64) error {
	if s.Epoch != want {
		return &StaleError{Want: want, Got: s.Epoch}
	}
	return nil
}

// TruncatedError: the buffer ended before the structure did.
type TruncatedError struct {
	Section string // "" when the header itself is short
	Offset  int
}

func (e *TruncatedError) Error() string {
	if e.Section == "" {
		return fmt.Sprintf("snapshot: truncated header at offset %d", e.Offset)
	}
	return fmt.Sprintf("snapshot: truncated in section %s at offset %d", e.Section, e.Offset)
}

// CorruptError: a checksum mismatch or a non-canonical encoding.
type CorruptError struct {
	Section string
	Detail  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt section %s: %s", e.Section, e.Detail)
}

// StaleError: the snapshot is from a different checkpoint epoch than
// the restore expected.
type StaleError struct {
	Want, Got uint64
}

func (e *StaleError) Error() string {
	return fmt.Sprintf("snapshot: stale epoch %d, want %d", e.Got, e.Want)
}

// fnv1a64 is the section checksum (same construction as the sim context
// checksums).
func fnv1a64(data []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// ---- writer ----

type wbuf struct{ b []byte }

func (w *wbuf) u8(v uint8)     { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16)   { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32)   { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)   { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i32(v int)      { w.u32(uint32(int32(v))) }
func (w *wbuf) i64(v int64)    { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *wbuf) str(s string)   { w.u32(uint32(len(s))); w.b = append(w.b, s...) }
func (w *wbuf) blob(b []byte)  { w.u32(uint32(len(b))); w.b = append(w.b, b...) }
func (w *wbuf) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *wbuf) u32s(s []uint32) {
	w.u32(uint32(len(s)))
	off := len(w.b)
	w.b = append(w.b, make([]byte, 4*len(s))...)
	for i, v := range s {
		binary.LittleEndian.PutUint32(w.b[off+4*i:], v)
	}
}

func (w *wbuf) u64s(s []uint64) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.u64(v)
	}
}

func (w *wbuf) i64s(s []int64) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.i64(v)
	}
}

func (w *wbuf) ints(s []int) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.i32(v)
	}
}

// ---- reader ----

// rbuf reads one section payload with a sticky error. Decoding enforces
// canonical form: any deviation that would re-encode differently is a
// CorruptError, so Decode∘Encode is the identity on valid buffers and
// Encode∘Decode is the identity on accepted ones.
type rbuf struct {
	data []byte
	off  int
	sec  string
	err  error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &CorruptError{Section: r.sec, Detail: fmt.Sprintf(format, args...)}
	}
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = &TruncatedError{Section: r.sec, Offset: r.off}
		return nil
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out
}

func (r *rbuf) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *rbuf) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *rbuf) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *rbuf) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *rbuf) i32() int         { return int(int32(r.u32())) }
func (r *rbuf) i64() int64       { return int64(r.u64()) }
func (r *rbuf) f64() float64     { return math.Float64frombits(r.u64()) }
func (r *rbuf) str() string      { return string(r.take(int(r.u32()))) }
func (r *rbuf) blob() []byte     { return append([]byte(nil), r.take(int(r.u32()))...) }
func (r *rbuf) boolean() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("boolean byte %d", v)
		return false
	}
}

// count reads a collection length and bounds it by the bytes remaining
// (elem is the minimum encoded size of one element), so a hostile
// length can never drive a huge allocation.
func (r *rbuf) count(elem int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n*elem > len(r.data)-r.off {
		r.err = &TruncatedError{Section: r.sec, Offset: r.off}
		return 0
	}
	return n
}

func (r *rbuf) u32s() []uint32 {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	raw := r.take(4 * n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return out
}

func (r *rbuf) u64s() []uint64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

func (r *rbuf) i64s() []int64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

func (r *rbuf) ints() []int {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.i32()
	}
	return out
}

// ---- per-type encoders/decoders ----

func putConfig(w *wbuf, c sim.Config) {
	w.i64(int64(c.NumSMs))
	w.i64(int64(c.MaxWarpsPerSM))
	w.i64(int64(c.VRegFileBytes))
	w.i64(int64(c.SRegFileBytes))
	w.i64(int64(c.LDSBytesPerSM))
	w.f64(c.ClockGHz)
	w.i64(int64(c.MemLatency))
	w.f64(c.MemBytesPerCycle)
	w.f64(c.CtxBytesPerCycle)
	w.f64(c.CtxRestoreFactor)
	w.i64(int64(c.LDSLatency))
	w.f64(c.LDSBytesPerCycle)
	w.i64(int64(c.GlobalMemBytes))
}

func getConfig(r *rbuf) sim.Config {
	return sim.Config{
		NumSMs:           int(r.i64()),
		MaxWarpsPerSM:    int(r.i64()),
		VRegFileBytes:    int(r.i64()),
		SRegFileBytes:    int(r.i64()),
		LDSBytesPerSM:    int(r.i64()),
		ClockGHz:         r.f64(),
		MemLatency:       int(r.i64()),
		MemBytesPerCycle: r.f64(),
		CtxBytesPerCycle: r.f64(),
		CtxRestoreFactor: r.f64(),
		LDSLatency:       int(r.i64()),
		LDSBytesPerCycle: r.f64(),
		GlobalMemBytes:   int(r.i64()),
	}
}

// putCtx encodes a SavedContext with all three slot maps in ascending
// key order — the one place the state tree holds maps, and the reason
// the repeat-encode test exists.
func putCtx(w *wbuf, c *sim.SavedContext) {
	if c == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	vkeys := make([]int32, 0, len(c.VSlots))
	for k := range c.VSlots {
		vkeys = append(vkeys, k)
	}
	sort.Slice(vkeys, func(i, j int) bool { return vkeys[i] < vkeys[j] })
	w.u32(uint32(len(vkeys)))
	for _, k := range vkeys {
		w.i32(int(k))
		w.u32s(c.VSlots[k])
	}
	putU64Map(w, c.SSlots)
	putU64Map(w, c.Specs)
	w.u32s(c.LDS)
	w.i32(c.PC)
	w.i64(c.DynCount)
	w.i32(c.Barriers)
}

func putU64Map(w *wbuf, m map[int32]uint64) {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.u32(uint32(len(keys)))
	for _, k := range keys {
		w.i32(int(k))
		w.u64(m[k])
	}
}

func getCtx(r *rbuf) *sim.SavedContext {
	if !r.boolean() {
		return nil
	}
	c := sim.NewSavedContext()
	n := r.count(8)
	prev := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		k := int32(r.u32())
		if int64(k) <= prev {
			r.fail("vreg slot keys not strictly ascending")
			return nil
		}
		prev = int64(k)
		c.VSlots[k] = r.u32s()
	}
	c.SSlots = getU64Map(r)
	c.Specs = getU64Map(r)
	c.LDS = r.u32s()
	c.PC = r.i32()
	c.DynCount = r.i64()
	c.Barriers = r.i32()
	return c
}

func getU64Map(r *rbuf) map[int32]uint64 {
	m := make(map[int32]uint64)
	n := r.count(12)
	prev := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		k := int32(r.u32())
		if int64(k) <= prev {
			r.fail("scalar slot keys not strictly ascending")
			return m
		}
		prev = int64(k)
		m[k] = r.u64()
	}
	return m
}

func putArch(w *wbuf, s *sim.ArchSnapshot) {
	if s == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.i32(s.PC)
	w.i64(s.DynCount)
	w.u64(s.Exec)
	w.u64(s.VCC)
	w.boolean(s.SCC)
	w.u64s(s.SRegs)
	w.u32s(s.LDSShare)
	w.u32(uint32(len(s.VRegs)))
	for _, row := range s.VRegs {
		w.u32s(row)
	}
}

func getArch(r *rbuf) *sim.ArchSnapshot {
	if !r.boolean() {
		return nil
	}
	s := &sim.ArchSnapshot{
		PC:       r.i32(),
		DynCount: r.i64(),
		Exec:     r.u64(),
		VCC:      r.u64(),
		SCC:      r.boolean(),
		SRegs:    r.u64s(),
		LDSShare: r.u32s(),
	}
	n := r.count(4)
	if n > 0 {
		s.VRegs = make([][]uint32, n)
		for i := range s.VRegs {
			s.VRegs[i] = r.u32s()
		}
	}
	return s
}

func putRec(w *wbuf, rec *sim.PreemptRecord) {
	if rec == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.i64(rec.SignalCycle)
	w.i64(rec.EnterCycle)
	w.i64(rec.RestoreDone)
	w.i64(rec.SavedCycle)
	w.i64(rec.ResumeStart)
	w.i64(rec.ResumeComplete)
	w.i64(rec.DynAtSignal)
	w.i32(rec.PCAtSignal)
	w.i64(rec.SavedBytes)
	w.i64(rec.RestoredBytes)
	w.u64(rec.SavedChecksum)
	w.boolean(rec.HasChecksum)
}

func getRec(r *rbuf) *sim.PreemptRecord {
	if !r.boolean() {
		return nil
	}
	return &sim.PreemptRecord{
		SignalCycle:    r.i64(),
		EnterCycle:     r.i64(),
		RestoreDone:    r.i64(),
		SavedCycle:     r.i64(),
		ResumeStart:    r.i64(),
		ResumeComplete: r.i64(),
		DynAtSignal:    r.i64(),
		PCAtSignal:     r.i32(),
		SavedBytes:     r.i64(),
		RestoredBytes:  r.i64(),
		SavedChecksum:  r.u64(),
		HasChecksum:    r.boolean(),
	}
}

// putRoutine encodes a warp's active routine stream via the canonical
// isa routine encoding.
func putRoutine(w *wbuf, instrs []isa.Instruction) {
	if len(instrs) == 0 {
		w.blob(nil)
		return
	}
	w.blob(isa.EncodeRoutine(instrs))
}

func getRoutine(r *rbuf) []isa.Instruction {
	raw := r.blob()
	if r.err != nil || len(raw) == 0 {
		return nil
	}
	instrs, err := isa.DecodeRoutine(raw)
	if err != nil {
		r.fail("routine: %v", err)
		return nil
	}
	// Reject non-canonical instruction bytes (e.g. nonzero operand
	// padding): they would re-encode differently.
	if canon := isa.EncodeRoutine(instrs); string(canon) != string(raw) {
		r.fail("non-canonical routine encoding")
		return nil
	}
	if len(instrs) == 0 {
		r.fail("empty routine with non-empty encoding")
		return nil
	}
	return instrs
}

func putRefs(w *wbuf, refs []sim.WarpRef) {
	w.u32(uint32(len(refs)))
	for _, ref := range refs {
		w.i32(ref.Launch)
		w.i32(ref.Warp)
	}
}

func getRefs(r *rbuf) []sim.WarpRef {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]sim.WarpRef, n)
	for i := range out {
		out[i] = sim.WarpRef{Launch: r.i32(), Warp: r.i32()}
	}
	return out
}

func putNames(w *wbuf, n trace.PhaseNames) {
	w.str(n.Drain)
	w.str(n.Save)
	w.str(n.Restore)
	w.str(n.Replay)
}

func getNames(r *rbuf) trace.PhaseNames {
	return trace.PhaseNames{Drain: r.str(), Save: r.str(), Restore: r.str(), Replay: r.str()}
}

// ---- sections ----

func putMeta(w *wbuf, st *sim.DeviceState) {
	putConfig(w, st.Cfg)
	w.i64(wireShards)
	w.i64(st.Now)
	w.i64(st.MemFree)
	w.i64(st.CtxFree)
	w.i64(st.Stats.Instructions)
	w.i64(st.Stats.KernelInstrs)
	w.i64(st.Stats.RoutineInstrs)
	w.i64(st.Stats.HookInstrs)
	w.i64(st.Stats.GlobalBytes)
	w.i64(st.Stats.LDSBytes)
	w.i64(st.Stats.Cycles)
}

func getMeta(r *rbuf, st *sim.DeviceState) {
	st.Cfg = getConfig(r)
	if v := r.i64(); r.err == nil && v != wireShards {
		r.fail("shard width %d, want %d", v, wireShards)
	}
	st.Now = r.i64()
	st.MemFree = r.i64()
	st.CtxFree = r.i64()
	st.Stats = sim.DeviceStats{
		Instructions:  r.i64(),
		KernelInstrs:  r.i64(),
		RoutineInstrs: r.i64(),
		HookInstrs:    r.i64(),
		GlobalBytes:   r.i64(),
		LDSBytes:      r.i64(),
		Cycles:        r.i64(),
	}
}

func putLaunches(w *wbuf, st *sim.DeviceState) {
	w.u32(uint32(len(st.Launches)))
	for li := range st.Launches {
		ls := &st.Launches[li]
		w.i32(ls.Prog)
		w.i32(ls.NumBlocks)
		w.i32(ls.WarpsPerBlock)
		w.ints(ls.SMFilter)
		w.i32(ls.NextBlock)
		w.i32(ls.DoneWarps)
		w.u32(uint32(len(ls.Blocks)))
		for bi := range ls.Blocks {
			bs := &ls.Blocks[bi]
			w.u32s(bs.LDS)
			w.i32(bs.SM)
			w.i32(bs.Done)
		}
		w.u32(uint32(len(ls.Warps)))
		for wi := range ls.Warps {
			ws := &ls.Warps[wi]
			w.i32(ws.SM)
			w.i32(ws.LDSShareLo)
			w.i32(ws.LDSShareHi)
			w.i32(ws.PC)
			w.u32s(ws.VRegs)
			w.u64s(ws.SRegs)
			w.u64(ws.Exec)
			w.u64(ws.VCC)
			w.boolean(ws.SCC)
			w.u8(uint8(ws.State))
			w.i64(ws.ReadyAt)
			w.i64s(ws.RegReadyV)
			w.i64s(ws.RegReadyS)
			for _, v := range ws.RegReadySpec {
				w.i64(v)
			}
			w.i64(ws.DynCount)
			w.i32(ws.BarrierCount)
			w.boolean(ws.BarrierWait)
			w.u8(uint8(ws.Mode))
			putRoutine(w, ws.Routine)
			w.i32(ws.RoutinePC)
			w.u8(uint8(ws.SavedMode))
			w.i32(ws.HookDepth)
			putCtx(w, ws.HookSavedCtx)
			w.boolean(ws.SkipHookOnce)
			putCtx(w, ws.Ctx)
			putRec(w, ws.Rec)
			w.i32(ws.Episode)
			putArch(w, ws.Snapshot)
			w.i32(ws.CtxRetries)
			w.i64(ws.LastStoreDone)
			w.i64(ws.LastIssued)
			w.i64(ws.QSeq)
		}
	}
}

func getLaunches(r *rbuf, st *sim.DeviceState) {
	nl := r.count(24)
	for li := 0; li < nl; li++ {
		ls := sim.LaunchState{
			Prog:          r.i32(),
			NumBlocks:     r.i32(),
			WarpsPerBlock: r.i32(),
			SMFilter:      r.ints(),
			NextBlock:     r.i32(),
			DoneWarps:     r.i32(),
		}
		nb := r.count(12)
		for bi := 0; bi < nb; bi++ {
			ls.Blocks = append(ls.Blocks, sim.BlockState{
				LDS:  r.u32s(),
				SM:   r.i32(),
				Done: r.i32(),
			})
		}
		nw := r.count(64)
		for wi := 0; wi < nw; wi++ {
			ws := sim.WarpSlotState{
				SM:         r.i32(),
				LDSShareLo: r.i32(),
				LDSShareHi: r.i32(),
				PC:         r.i32(),
				VRegs:      r.u32s(),
				SRegs:      r.u64s(),
				Exec:       r.u64(),
				VCC:        r.u64(),
				SCC:        r.boolean(),
				State:      sim.WarpState(r.u8()),
				ReadyAt:    r.i64(),
				RegReadyV:  r.i64s(),
				RegReadyS:  r.i64s(),
			}
			for i := range ws.RegReadySpec {
				ws.RegReadySpec[i] = r.i64()
			}
			ws.DynCount = r.i64()
			ws.BarrierCount = r.i32()
			ws.BarrierWait = r.boolean()
			ws.Mode = sim.ExecMode(r.u8())
			ws.Routine = getRoutine(r)
			ws.RoutinePC = r.i32()
			ws.SavedMode = sim.ExecMode(r.u8())
			ws.HookDepth = r.i32()
			ws.HookSavedCtx = getCtx(r)
			ws.SkipHookOnce = r.boolean()
			ws.Ctx = getCtx(r)
			ws.Rec = getRec(r)
			ws.Episode = r.i32()
			ws.Snapshot = getArch(r)
			ws.CtxRetries = r.i32()
			ws.LastStoreDone = r.i64()
			ws.LastIssued = r.i64()
			ws.QSeq = r.i64()
			ls.Warps = append(ls.Warps, ws)
			if r.err != nil {
				return
			}
		}
		st.Launches = append(st.Launches, ls)
		if r.err != nil {
			return
		}
	}
}

func putSMs(w *wbuf, st *sim.DeviceState) {
	w.u32(uint32(len(st.SMs)))
	for si := range st.SMs {
		ss := &st.SMs[si]
		w.i64(ss.IssueFree)
		w.i64(ss.LDSFree)
		w.i64(ss.SeqGen)
		w.boolean(ss.Offline)
		w.i32(ss.Episode)
		putRefs(w, ss.Resident)
	}
}

func getSMs(r *rbuf, st *sim.DeviceState) {
	n := r.count(33)
	for i := 0; i < n; i++ {
		st.SMs = append(st.SMs, sim.SMState{
			IssueFree: r.i64(),
			LDSFree:   r.i64(),
			SeqGen:    r.i64(),
			Offline:   r.boolean(),
			Episode:   r.i32(),
			Resident:  getRefs(r),
		})
		if r.err != nil {
			return
		}
	}
}

func putEpisodes(w *wbuf, st *sim.DeviceState) {
	w.u32(uint32(len(st.Episodes)))
	for ei := range st.Episodes {
		es := &st.Episodes[ei]
		w.i32(es.SM)
		w.boolean(es.Pending)
		w.ints(es.Frozen)
		putRefs(w, es.Victims)
		w.i64(es.SignalCycle)
		w.i64(es.AllSavedCycle)
		w.i64(es.ResumeStart)
		w.i64(es.AllResumed)
		w.i32(es.Faults.TransientRetries)
		w.i32(es.Faults.CorruptedContexts)
		w.i32(es.Faults.ChecksumMismatches)
		w.i32(es.Faults.AbsorbedDupSignals)
		w.i32(es.EnteredCount)
		w.i32(es.SavedCount)
		w.i32(es.ResumedCount)
		w.i64(es.EnterLast)
		w.i64(es.RestoreLast)
		w.str(es.Tech)
		putNames(w, es.Names)
	}
}

func getEpisodes(r *rbuf, st *sim.DeviceState) {
	n := r.count(80)
	for i := 0; i < n; i++ {
		es := sim.EpisodeState{
			SM:      r.i32(),
			Pending: r.boolean(),
			Frozen:  r.ints(),
			Victims: getRefs(r),
		}
		es.SignalCycle = r.i64()
		es.AllSavedCycle = r.i64()
		es.ResumeStart = r.i64()
		es.AllResumed = r.i64()
		es.Faults = sim.EpisodeFaults{
			TransientRetries:   r.i32(),
			CorruptedContexts:  r.i32(),
			ChecksumMismatches: r.i32(),
			AbsorbedDupSignals: r.i32(),
		}
		es.EnteredCount = r.i32()
		es.SavedCount = r.i32()
		es.ResumedCount = r.i32()
		es.EnterLast = r.i64()
		es.RestoreLast = r.i64()
		es.Tech = r.str()
		es.Names = getNames(r)
		st.Episodes = append(st.Episodes, es)
		if r.err != nil {
			return
		}
	}
}

func putMem(w *wbuf, st *sim.DeviceState) {
	w.u32s(st.Mem)
}

func getMem(r *rbuf, st *sim.DeviceState) {
	st.Mem = r.u32s()
}

// ---- top level ----

// Encode serializes snap. The output is byte-stable: equal snapshots
// encode to equal bytes regardless of map layout or encode count.
func Encode(snap *Snapshot) []byte {
	st := snap.State
	w := &wbuf{b: make([]byte, 0, 4*len(st.Mem)+64<<10)}
	w.b = append(w.b, magic...)
	w.u16(version)
	w.u64(snap.Epoch)

	emit := func(id uint16, put func(*wbuf, *sim.DeviceState)) {
		var pw wbuf
		put(&pw, st)
		w.u16(id)
		w.u32(uint32(len(pw.b)))
		w.b = append(w.b, pw.b...)
		w.u64(fnv1a64(pw.b))
	}
	emit(secMeta, putMeta)
	emit(secProgs, func(w *wbuf, st *sim.DeviceState) {
		w.u32(uint32(len(st.Progs)))
		for _, p := range st.Progs {
			w.blob(p)
		}
	})
	emit(secLaunches, putLaunches)
	emit(secSMs, putSMs)
	emit(secEpisodes, putEpisodes)
	emit(secMem, putMem)
	return w.b
}

// Decode parses and fully verifies an Encode buffer: magic, version,
// every section present once in order, every checksum, canonical form,
// no trailing bytes. It does NOT run sim-level invariant checks — the
// caller (or ImportState) does that on the returned state.
func Decode(data []byte) (*Snapshot, error) {
	snap, _, err := decode(data, false)
	return snap, err
}

// DecodeSpeculative parses data like Decode but defers the trailing
// memory-section checksum: the returned validate function performs that
// comparison when called. A restore can therefore begin replaying
// against the fully-verified control state while the bulk memory image
// is still, logically, in flight — the PhoenixOS speculation — and run
// validate (plus the resume-integrity oracle) afterward to decide
// whether to keep the result or fall back to a synchronous restore.
func DecodeSpeculative(data []byte) (*Snapshot, func() error, error) {
	return decode(data, true)
}

func decode(data []byte, speculative bool) (*Snapshot, func() error, error) {
	hdr := &rbuf{data: data, sec: ""}
	if m := string(hdr.take(4)); hdr.err == nil && m != magic {
		return nil, nil, &CorruptError{Section: "header", Detail: fmt.Sprintf("bad magic %q", m)}
	}
	if v := hdr.u16(); hdr.err == nil && v != version {
		return nil, nil, &CorruptError{Section: "header", Detail: fmt.Sprintf("unsupported version %d", v)}
	}
	epoch := hdr.u64()
	if hdr.err != nil {
		return nil, nil, hdr.err
	}

	st := &sim.DeviceState{}
	validate := func() error { return nil }
	off := hdr.off
	order := []struct {
		id  uint16
		get func(*rbuf, *sim.DeviceState)
	}{
		{secMeta, getMeta},
		{secProgs, func(r *rbuf, st *sim.DeviceState) {
			n := r.count(4)
			for i := 0; i < n; i++ {
				st.Progs = append(st.Progs, r.blob())
			}
		}},
		{secLaunches, getLaunches},
		{secSMs, getSMs},
		{secEpisodes, getEpisodes},
		{secMem, getMem},
	}
	for _, sec := range order {
		name := secNames[sec.id]
		fr := &rbuf{data: data, off: off, sec: name}
		id := fr.u16()
		plen := int(fr.u32())
		payload := fr.take(plen)
		sum := fr.u64()
		if fr.err != nil {
			return nil, nil, fr.err
		}
		if id != sec.id {
			return nil, nil, &CorruptError{Section: name, Detail: fmt.Sprintf("section id %d out of order (want %d)", id, sec.id)}
		}
		if sec.id == secMem && speculative {
			// Defer the bulk checksum; everything structural still runs.
			memPayload, memSum := payload, sum
			validate = func() error {
				if fnv1a64(memPayload) != memSum {
					return &CorruptError{Section: name, Detail: "deferred checksum mismatch"}
				}
				return nil
			}
		} else if fnv1a64(payload) != sum {
			return nil, nil, &CorruptError{Section: name, Detail: "checksum mismatch"}
		}
		pr := &rbuf{data: payload, sec: name}
		sec.get(pr, st)
		if pr.err != nil {
			return nil, nil, pr.err
		}
		if pr.off != len(payload) {
			return nil, nil, &CorruptError{Section: name, Detail: fmt.Sprintf("%d trailing bytes", len(payload)-pr.off)}
		}
		off = fr.off
	}
	if off != len(data) {
		return nil, nil, &CorruptError{Section: "trailer", Detail: fmt.Sprintf("%d trailing bytes after last section", len(data)-off)}
	}
	return &Snapshot{Epoch: epoch, State: st}, validate, nil
}

// Capture is the checkpoint entry point: exports dev's state and wraps
// it with epoch.
func Capture(dev *sim.Device, epoch uint64) (*Snapshot, []byte) {
	st, _ := dev.ExportState()
	snap := &Snapshot{Epoch: epoch, State: st}
	return snap, Encode(snap)
}
