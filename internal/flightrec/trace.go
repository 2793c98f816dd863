package flightrec

import (
	"encoding/json"
	"io"

	"lbmib/internal/core"
)

// The bundle's trace is synthesized from the ring after the fact, so it
// carries its own minimal Chrome trace-event structs rather than using
// telemetry.Tracer (whose timeline is anchored to real wall-clock time).
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Trace track layout: steps on 0, with the per-kind breakdowns below.
const (
	trackSteps = iota
	trackKernels
	trackPhases
)

// writeTrace renders the ring's final window as a Chrome trace-event
// timeline: one "step" slice per record on track 0, the recorded
// kernel/phase breakdown laid out sequentially inside each step's
// window, and mass/maxVel counter tracks on digested steps. Timestamps
// are reconstructed from the accumulated wall times (the ring stores
// durations, not absolute times), so slice positions are faithful to
// relative step cost even though the origin is synthetic.
func writeTrace(w io.Writer, records []Record) error {
	events := []traceEvent{
		{Name: "thread_name", Phase: "M", PID: 1, TID: trackSteps, Args: map[string]any{"name": "steps"}},
	}
	named := map[int]bool{trackSteps: true}
	name := func(tid int, label string) {
		if !named[tid] {
			named[tid] = true
			events = append(events, traceEvent{Name: "thread_name", Phase: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": label}})
		}
	}
	us := func(sec float64) float64 { return sec * 1e6 }

	now := 0.0
	for _, r := range records {
		args := map[string]any{"step": r.Step}
		if r.MLUPS > 0 {
			args["mlups"] = r.MLUPS
		}
		events = append(events, traceEvent{
			Name: "step", Cat: "step", Phase: "X",
			TS: now, Dur: us(r.WallSeconds), PID: 1, TID: trackSteps, Args: args,
		})
		off := now
		for k := 0; k < core.NumKernels; k++ {
			if s := r.KernelSeconds[k]; s > 0 {
				name(trackKernels, "kernels")
				events = append(events, traceEvent{
					Name: core.Kernel(k + 1).String(), Cat: "kernel", Phase: "X",
					TS: off, Dur: us(s), PID: 1, TID: trackKernels,
					Args: map[string]any{"step": r.Step},
				})
				off += us(s)
			}
		}
		off = now
		for p := 0; p < core.NumPhases; p++ {
			if s := r.PhaseSeconds[p]; s > 0 {
				name(trackPhases, "phases (thread-seconds)")
				events = append(events, traceEvent{
					Name: core.Phase(p + 1).String(), Cat: "phase", Phase: "X",
					TS: off, Dur: us(s), PID: 1, TID: trackPhases,
					Args: map[string]any{"step": r.Step},
				})
				off += us(s)
			}
		}
		if r.HasDigest {
			events = append(events, traceEvent{
				Name: "physics", Phase: "C", TS: now, PID: 1, TID: trackSteps,
				Args: map[string]any{"mass": r.Mass, "maxVel": r.MaxVel, "nonFinite": r.NonFinite},
			})
		}
		if d := us(r.WallSeconds); d > 0 {
			now += d
		} else {
			now += 1 // keep zero-walltime records visibly ordered
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceDoc{TraceEvents: events, DisplayTimeUnit: "ms"})
}
