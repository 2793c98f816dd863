package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/engine"
	"lbmib/internal/fiber"
)

// decodeTrace unmarshals a trace document and fails the test on invalid
// JSON — the format contract chrome://tracing and Perfetto rely on.
func decodeTrace(t *testing.T, data []byte) traceFile {
	t.Helper()
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	return doc
}

func TestTracerKernelObserver(t *testing.T) {
	tr := NewTracer()
	tr.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KComputeCollision, D: 3 * time.Millisecond})
	tr.Emit(core.Event{Kind: core.KernelDone, Kernel: core.KStreamDistribution, D: time.Millisecond})

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, buf.Bytes())
	var slices, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "X":
			slices++
			if ev.TID != 0 {
				t.Errorf("kernel slice on track %d, want 0", ev.TID)
			}
			if ev.Dur <= 0 {
				t.Errorf("slice %q has non-positive duration %g", ev.Name, ev.Dur)
			}
		case "M":
			meta++
		}
	}
	if slices != 2 || meta != 1 {
		t.Fatalf("got %d slices and %d metadata events, want 2 and 1", slices, meta)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	if !names[core.KComputeCollision.String()] || !names[core.KStreamDistribution.String()] {
		t.Fatalf("kernel names missing from trace: %v", names)
	}
}

// TestTracerCubeSolverRun is the acceptance check: a real cube-solver
// run traced through its Probe yields valid Chrome
// trace-event JSON with one named track per thread of the P×Q×R mesh and
// slices named after the Algorithm-4 phases.
func TestTracerCubeSolverRun(t *testing.T) {
	const threads = 4
	sheet := fiber.NewSheet(fiber.Params{
		NumFibers: 8, NodesPerFiber: 8, Width: 3.2, Height: 3.2,
		Origin: fiber.Vec3{4, 6, 6}, Ks: 0.05, Kb: 0.001,
	})
	s, err := engine.NewCube(core.Config{
		NX: 16, NY: 16, NZ: 16, Tau: 0.7,
		BodyForce: [3]float64{1e-5, 0, 0}, Sheet: sheet,
	}, 4, threads)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr := NewTracer()
	s.Probe = tr
	s.Run(3)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, buf.Bytes())

	tracks := map[int]bool{}
	phaseSeen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		tracks[ev.TID] = true
		phaseSeen[ev.Name] = true
	}
	// The P×Q×R mesh has exactly `threads` threads in total; every one
	// must own a track.
	if len(tracks) < threads {
		t.Fatalf("trace has %d thread tracks, want ≥ %d", len(tracks), threads)
	}
	for p := core.Phase(1); p <= core.NumPhases; p++ {
		if !phaseSeen[p.String()] {
			t.Errorf("phase %q missing from trace", p)
		}
	}
	// 3 steps × 5 phases × threads workers.
	wantSlices := 3 * core.NumPhases * threads
	slices := 0
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			slices++
		}
	}
	if slices != wantSlices {
		t.Fatalf("got %d phase slices, want %d", slices, wantSlices)
	}
}

// TestTracerConcurrentSafe emits from eight goroutines at once. Every
// other slice has zero length, as on a coarse clock, and is kept like
// any other.
func TestTracerConcurrentSafe(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := time.Duration(i%2) * time.Microsecond
				tr.Emit(core.Event{Kind: core.PhaseDone, Step: i, Tid: tid, Phase: core.PhaseCollideStream, D: d})
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, buf.Bytes())
	if got, want := len(doc.TraceEvents), 8*200+8; got != want {
		t.Fatalf("got %d events, want %d", got, want)
	}
}

func TestTracerEmptyWriteIsValid(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer().Write(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, buf.Bytes())
	if doc.TraceEvents == nil || len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace encoded as %q", buf.String())
	}
}

// TestTracerSlicesAllocateNothingButEvents pins the tracer's hot path:
// with room in the event buffer, a cube step observed by a Tracer alone
// allocates exactly what the detached step does — no per-event args map,
// no per-event track name.
func TestTracerSlicesAllocateNothingButEvents(t *testing.T) {
	s, err := engine.NewCube(core.Config{NX: 16, NY: 16, NZ: 16, Tau: 0.7, BodyForce: [3]float64{1e-5, 0, 0}}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	detached := testing.AllocsPerRun(5, s.Step)

	tr := NewTracer()
	tr.events = make([]traceEvent, 0, 1<<12)
	s.Probe = tr
	s.Step() // names the two worker tracks
	observed := testing.AllocsPerRun(5, s.Step)
	if observed != detached {
		t.Errorf("observed step allocates %v, detached %v", observed, detached)
	}
	if tr.Len() != 2+7*2*core.NumPhases {
		t.Errorf("%d trace events, want 2 track names and 7 steps × 2 threads × %d phases", tr.Len(), core.NumPhases)
	}
}
