package preempt

import (
	"sync"

	"ctxback/internal/artifact"
	"ctxback/internal/core"
	"ctxback/internal/isa"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// ctxbackTech wires the core CTXBack pass into the simulator: dedicated
// per-PC preemption/resume routines plus the OSRB backup copies injected
// at block entries during normal execution.
type ctxbackTech struct {
	prog     *isa.Program
	compiled *core.Compiled
}

// NewCTXBack compiles CTXBack with all three techniques enabled.
func NewCTXBack(prog *isa.Program) (Technique, error) {
	return NewCTXBackFeatures(prog, core.FeatAll)
}

// compileCache memoizes the (deterministic) pass output, keyed by the
// program's canonical binary encoding, so rebuilding the same kernel —
// even as a fresh Program value — never recompiles. The cached Compiled
// is only shared read-only state (plans and routines); its Prog/Graph
// fields refer to the first-seen equivalent program, which is fine
// because plan PCs are positional.
var compileCache sync.Map // compileKey -> *core.Compiled

type compileKey struct {
	encoded string
	feats   core.Feature
}

// ptrCompileCache is a fast path in front of compileCache: the harness
// constructs a technique per episode against the same shared Program
// value, and pointer identity skips re-encoding the program on every
// construction.
var ptrCompileCache sync.Map // ptrCompileKey -> *core.Compiled

type ptrCompileKey struct {
	prog  *isa.Program
	feats core.Feature
}

// NewCTXBackFeatures compiles CTXBack with a feature subset (ablations).
// Lookup order: per-pointer cache, per-content cache, artifact store
// (when configured — a warm store replaces the ~seconds compile with a
// millisecond plan load), then the cold core.Compile.
func NewCTXBackFeatures(prog *isa.Program, feats core.Feature) (Technique, error) {
	pkey := ptrCompileKey{prog: prog, feats: feats}
	if c, ok := ptrCompileCache.Load(pkey); ok {
		return &ctxbackTech{prog: prog, compiled: c.(*core.Compiled)}, nil
	}
	enc := encodedProgram(prog)
	key := compileKey{encoded: string(enc), feats: feats}
	if c, ok := compileCache.Load(key); ok {
		ptrCompileCache.LoadOrStore(pkey, c)
		return &ctxbackTech{prog: prog, compiled: c.(*core.Compiled)}, nil
	}
	var c *core.Compiled
	var err error
	if st := artifact.Default(); st != nil {
		c, err = storedCompiled(st, prog, feats, enc)
	} else {
		c, err = core.Compile(prog, feats)
	}
	if err != nil {
		return nil, err
	}
	got, _ := compileCache.LoadOrStore(key, c)
	ptrCompileCache.LoadOrStore(pkey, got)
	return &ctxbackTech{prog: prog, compiled: got.(*core.Compiled)}, nil
}

// Compiled exposes the underlying pass output (selection details,
// routine-sharing stats).
func (t *ctxbackTech) Compiled() *core.Compiled { return t.compiled }

func (t *ctxbackTech) Kind() Kind   { return CTXBack }
func (t *ctxbackTech) Name() string { return CTXBack.String() }

// PhaseNames: CTXBack's replay is the context flashback — regenerating
// unsaved registers from the OSRB backups.
func (t *ctxbackTech) PhaseNames() trace.PhaseNames {
	return trace.PhaseNames{Drain: "drain", Save: "save", Restore: "restore", Replay: "flashback"}
}

func (t *ctxbackTech) PreemptRoutine(w *sim.Warp) []isa.Instruction {
	return finishPreempt(w, t.compiled.PreemptRoutines[w.PC], w.PC)
}

func (t *ctxbackTech) ResumeRoutine(w *sim.Warp) ([]isa.Instruction, *sim.SavedContext) {
	pc := w.Ctx().PC
	return finishResume(w, t.compiled.ResumeRoutines[pc], pc), nil
}

// Hook injects the OSRB backup copies at instrumented block entries.
func (t *ctxbackTech) Hook(w *sim.Warp, pc int) ([]isa.Instruction, *sim.SavedContext) {
	if w.Prog != t.prog {
		return nil, nil // another kernel sharing the device
	}
	if instrs, ok := t.compiled.BackupAt[pc]; ok {
		return instrs, nil
	}
	return nil, nil
}

func (t *ctxbackTech) StaticContextBytes(pc int) int {
	// EXEC is always part of the swapped state; count it if the plan did
	// not already.
	plan := t.compiled.Plans[pc]
	bytes := plan.ContextBytes
	if _, ok := plan.InitRegs[isa.Exec]; !ok {
		bytes += isa.Exec.ContextBytes()
	}
	return bytes
}

func (t *ctxbackTech) EstPreemptCycles(pc int) int64 {
	plan := t.compiled.Plans[pc]
	return int64(len(plan.PreemptReverts)) + estTrafficCycles(t.StaticContextBytes(pc))
}

// combinedTech selects, per PC, whichever of CTXBack and CS-Defer has the
// smaller estimated preemption latency (paper §IV-C). The estimates are
// stall-blind, so the choice is occasionally sub-optimal — exactly the
// effect §V-B reports.
type combinedTech struct {
	prog   *isa.Program
	ctx    Technique
	csd    Technique
	useCTX []bool
}

// combinedCache memoizes the per-PC CTXBack-vs-CS-Defer choice: the
// estimates are pure functions of the program, so the selection table is
// shared read-only across episodes.
var combinedCache sync.Map // *isa.Program -> []bool

// NewCombined compiles CTXBack+CS-Defer.
func NewCombined(prog *isa.Program) (Technique, error) {
	ctx, err := NewCTXBack(prog)
	if err != nil {
		return nil, err
	}
	csd, err := NewCSDefer(prog)
	if err != nil {
		return nil, err
	}
	t := &combinedTech{prog: prog, ctx: ctx, csd: csd}
	if cached, ok := combinedCache.Load(prog); ok {
		t.useCTX = cached.([]bool)
		return t, nil
	}
	useCTX := make([]bool, prog.Len())
	for pc := 0; pc < prog.Len(); pc++ {
		useCTX[pc] = ctx.EstPreemptCycles(pc) <= csd.EstPreemptCycles(pc)
	}
	got, _ := combinedCache.LoadOrStore(prog, useCTX)
	t.useCTX = got.([]bool)
	return t, nil
}

func (t *combinedTech) Kind() Kind   { return Combined }
func (t *combinedTech) Name() string { return Combined.String() }

// PhaseNames: the combination defers like CS-Defer and flashes back like
// CTXBack, depending on the signal PC.
func (t *combinedTech) PhaseNames() trace.PhaseNames {
	return trace.PhaseNames{Drain: "defer", Save: "save", Restore: "restore", Replay: "flashback"}
}

func (t *combinedTech) pick(pc int) Technique {
	if t.useCTX[pc] {
		return t.ctx
	}
	return t.csd
}

func (t *combinedTech) PreemptRoutine(w *sim.Warp) []isa.Instruction {
	return t.pick(w.PC).PreemptRoutine(w)
}

func (t *combinedTech) ResumeRoutine(w *sim.Warp) ([]isa.Instruction, *sim.SavedContext) {
	// The resume routine must match whichever technique generated the
	// saved context; the choice was a pure function of the PC that
	// observed the signal.
	return t.pick(w.PreemptPC()).ResumeRoutine(w)
}

func (t *combinedTech) Hook(w *sim.Warp, pc int) ([]isa.Instruction, *sim.SavedContext) {
	// OSRB instrumentation must run regardless of the per-PC choice: a
	// future signal anywhere in the block may use a CTXBack plan.
	return t.ctx.Hook(w, pc)
}

func (t *combinedTech) StaticContextBytes(pc int) int {
	return t.pick(pc).StaticContextBytes(pc)
}

func (t *combinedTech) EstPreemptCycles(pc int) int64 {
	return t.pick(pc).EstPreemptCycles(pc)
}
