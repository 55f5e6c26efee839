package sim

import (
	"fmt"
	"strings"
)

// TraceEvent records one executed instruction (any mode).
type TraceEvent struct {
	Cycle  int64
	SM     int
	WarpID int
	Mode   ExecMode
	PC     int // kernel PC (routine events keep the underlying kernel PC)
	Text   string
}

// Tracer collects execution events into a bounded ring buffer. Attach
// with Device.EnableTrace; zero-cost when disabled.
type Tracer struct {
	events []TraceEvent
	next   int
	filled bool
}

// EnableTrace attaches a ring buffer of the given capacity and returns
// the tracer.
func (d *Device) EnableTrace(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	d.tracer = &Tracer{events: make([]TraceEvent, capacity)}
	return d.tracer
}

func (tr *Tracer) record(ev TraceEvent) {
	tr.events[tr.next] = ev
	tr.next++
	if tr.next == len(tr.events) {
		tr.next = 0
		tr.filled = true
	}
}

// Events returns the recorded events in chronological order.
func (tr *Tracer) Events() []TraceEvent {
	if !tr.filled {
		return append([]TraceEvent(nil), tr.events[:tr.next]...)
	}
	out := make([]TraceEvent, 0, len(tr.events))
	out = append(out, tr.events[tr.next:]...)
	out = append(out, tr.events[:tr.next]...)
	return out
}

// Render formats the trace as an aligned listing.
func (tr *Tracer) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %3s %5s %6s %5s  %s\n", "cycle", "sm", "warp", "mode", "pc", "instruction")
	for _, ev := range tr.Events() {
		fmt.Fprintf(&b, "%10d %3d %5d %6s %5d  %s\n",
			ev.Cycle, ev.SM, ev.WarpID, modeName(ev.Mode), ev.PC, ev.Text)
	}
	return b.String()
}

func modeName(m ExecMode) string {
	switch m {
	case ModeKernel:
		return "kern"
	case ModePreemptRoutine:
		return "save"
	case ModeResumeRoutine:
		return "rest"
	case ModeHook:
		return "hook"
	}
	return "?"
}
