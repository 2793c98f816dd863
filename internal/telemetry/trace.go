package telemetry

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"

	"lbmib/internal/core"
)

// traceEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// "X" complete events carry a start timestamp and a duration in
// microseconds; "M" metadata events name processes and threads.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    uint64         `json:"id,omitempty"` // flow-event binding ("s"/"f" pairs)
	BP    string         `json:"bp,omitempty"` // "e": bind flow end to enclosing slice
	Args  map[string]any `json:"args,omitempty"`

	// step, for slices, is rendered as args.step by Write: building the
	// map when the slice is recorded would allocate once per event on the
	// worker threads.
	step    int
	hasStep bool
}

// traceFile is the top-level JSON object chrome://tracing and Perfetto
// load.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Tracer accumulates a Chrome trace-event timeline from the engines'
// events and writes it as one JSON document on Write. It is a core.Probe
// consuming kernel events (sequential and OpenMP-style solvers report on
// track 0) and phase events (one track per worker thread of the P×Q×R
// mesh, so barrier waits show as gaps between a thread's phase slices).
// Safe for concurrent use — the cube solver's workers all report into
// the same Tracer.
//
// The events deliver durations at completion time, so each slice's
// start is reconstructed as (now − duration) relative to the Tracer's
// creation; slices on one track never overlap because each worker
// executes its phases serially.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []traceEvent
	named  map[int]bool // tracks already given a thread_name
}

// NewTracer creates an empty timeline whose time origin is now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), named: map[int]bool{}}
}

// slice appends a completed span of the given duration ending now on
// track tid, naming the track when this is its first slice.
func (t *Tracer) slice(tid int, name, cat string, d time.Duration, step int) {
	now := time.Now()
	t.mu.Lock()
	if !t.named[tid] {
		t.named[tid] = true
		track := "solver"
		if cat == "phase" {
			track = "worker " + strconv.Itoa(tid)
		}
		t.events = append(t.events, traceEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": track},
		})
	}
	ts := float64(now.Sub(t.start).Microseconds()) - float64(d.Microseconds())
	if ts < 0 {
		ts = 0
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Phase: "X",
		TS: ts, Dur: float64(d.Microseconds()),
		PID: 1, TID: tid, step: step, hasStep: true,
	})
	t.mu.Unlock()
}

// Counter appends a Chrome trace "C" counter sample on track tid at the
// current time. Each key of values becomes one stacked series in the
// viewer — the per-cube heatmap uses this to render per-thread load as
// counter tracks alongside the phase slices.
func (t *Tracer) Counter(tid int, name string, values map[string]any) {
	now := time.Now()
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: name, Phase: "C",
		TS:  float64(now.Sub(t.start).Microseconds()),
		PID: 1, TID: tid, Args: values,
	})
	t.mu.Unlock()
}

// FlowStart appends a Chrome trace flow-start ("s") event on track tid
// at the current time. Flow events with the same id are drawn as an
// arrow from the start to the end — the critical-path profiler emits a
// start on the last arriver's track at each barrier release and ends on
// the tracks of the threads that waited for it, making "who made whom
// wait" a visible edge in the timeline.
func (t *Tracer) FlowStart(id uint64, tid int, name string) {
	now := time.Now()
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: name, Cat: "critpath", Phase: "s", ID: id,
		TS:  float64(now.Sub(t.start).Microseconds()),
		PID: 1, TID: tid,
	})
	t.mu.Unlock()
}

// FlowEnd appends the matching flow-end ("f") event on track tid,
// bound to the enclosing slice ("bp":"e") so viewers attach the arrow
// head to the phase slice that resumed after the wait.
func (t *Tracer) FlowEnd(id uint64, tid int, name string) {
	now := time.Now()
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: name, Cat: "critpath", Phase: "f", ID: id, BP: "e",
		TS:  float64(now.Sub(t.start).Microseconds()),
		PID: 1, TID: tid,
	})
	t.mu.Unlock()
}

// Emit implements core.Probe. Sequential and OpenMP-style solvers run
// Algorithm 1's kernels on the coordinating goroutine, so every kernel
// slice lands on track 0; each worker thread of the P×Q×R mesh gets its
// own track, making Algorithm 4's phase overlap and barrier waits
// visible.
func (t *Tracer) Emit(e core.Event) {
	switch e.Kind {
	case core.KernelDone:
		t.slice(0, e.Kernel.String(), "kernel", e.D, e.Step)
	case core.PhaseDone:
		t.slice(e.Tid, e.Phase.String(), "phase", e.D, e.Step)
	}
}

// Len returns how many events have been recorded (metadata included).
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Write writes the accumulated timeline as Chrome trace-event JSON.
// The Tracer remains usable; later writes include the earlier events.
func (t *Tracer) Write(w io.Writer) error {
	t.mu.Lock()
	doc := traceFile{TraceEvents: append([]traceEvent{}, t.events...), DisplayTimeUnit: "ms"}
	t.mu.Unlock()
	for i := range doc.TraceEvents {
		if ev := &doc.TraceEvents[i]; ev.hasStep {
			ev.Args = map[string]any{"step": ev.step}
		}
	}
	return json.NewEncoder(w).Encode(doc)
}
