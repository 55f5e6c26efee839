package preempt

import (
	"ctxback/internal/cfg"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// csdeferTech implements CS-Defer [4]: on a preemption signal at P, the
// warp keeps executing until a succeeding instruction D with a small
// register context, then swaps D's live context. No re-execution at
// resume, but the deferral contributes its full execution time —
// including memory stalls — to the preemption latency.
type csdeferTech struct {
	prog *isa.Program
	live *liveness.Info
	// target[pc] is the deferral destination for a signal at pc.
	target []int
}

// NewCSDefer compiles CS-Defer: for every PC, the minimum-live-context
// instruction reachable by straight-line execution (same basic block, no
// barrier or atomic crossed — the deferral runs inside the preemption
// routine where block-wide synchronization would deadlock). Liveness and
// the deferral-target table are memoized per program.
func NewCSDefer(prog *isa.Program) (Technique, error) {
	a, err := analysisFor(prog)
	if err != nil {
		return nil, err
	}
	return &csdeferTech{prog: prog, live: a.live, target: csdeferTargets(prog, a.graph, a.live)}, nil
}

func deferTarget(prog *isa.Program, g *cfg.Graph, live *liveness.Info, pc int) int {
	end := g.BlockOf(pc).End
	best, bestBytes := pc, live.ContextBytes(pc)
	for d := pc; d < end; d++ {
		if b := live.ContextBytes(d); b < bestBytes {
			best, bestBytes = d, b
		}
		in := prog.At(d)
		if in.Op == isa.SBarrier || in.Op.Info().Class == isa.ClassAtomic || in.Op == isa.SEndpgm {
			break // cannot defer across synchronization
		}
	}
	return best
}

func (t *csdeferTech) Kind() Kind   { return CSDefer }
func (t *csdeferTech) Name() string { return CSDefer.String() }

// PhaseNames: the pre-save phase is the deliberate deferral to a
// small-context point, not a plain drain.
func (t *csdeferTech) PhaseNames() trace.PhaseNames {
	return trace.PhaseNames{Drain: "defer", Save: "save", Restore: "restore", Replay: "replay"}
}

func (t *csdeferTech) contextAt(pc int) isa.RegSet {
	regs := t.live.Context(pc)
	regs.Add(isa.Exec)
	return regs
}

func (t *csdeferTech) PreemptRoutine(w *sim.Warp) []isa.Instruction {
	d := t.target[w.PC]
	var body []isa.Instruction
	// Deferral: execute the original instructions up to D inside the
	// routine (they are real progress; stores land, loads stall).
	for pc := w.PC; pc < d; pc++ {
		body = append(body, *t.prog.At(pc))
	}
	body = append(body, saveSet(t.contextAt(d))...)
	return finishPreempt(w, body, d)
}

func (t *csdeferTech) ResumeRoutine(w *sim.Warp) ([]isa.Instruction, *sim.SavedContext) {
	pc := w.Ctx().PC
	return finishResume(w, loadSet(t.contextAt(pc)), pc), nil
}

func (t *csdeferTech) Hook(w *sim.Warp, pc int) ([]isa.Instruction, *sim.SavedContext) {
	return nil, nil
}

func (t *csdeferTech) StaticContextBytes(pc int) int {
	return t.contextAt(t.target[pc]).ContextBytes()
}

// EstPreemptCycles sums the deferred instructions' issue cycles plus the
// context traffic. Memory stalls in the deferral window are not modeled
// (paper §V-B: "the potential latency induced by the preceding
// instructions is not considered"), so this estimate is systematically
// optimistic for CS-Defer.
func (t *csdeferTech) EstPreemptCycles(pc int) int64 {
	d := t.target[pc]
	var cycles int64
	for i := pc; i < d; i++ {
		cycles += int64(t.prog.At(i).Op.Info().IssueCycles)
	}
	return cycles + estTrafficCycles(t.StaticContextBytes(pc))
}
