package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced run. Parent is the ID of the
// span that caused it (-1 for the root); Start and End are nanoseconds
// since the tracer was created. Every span of one run carries the same
// workload name and run ID.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Run      string `json:"run"`
}

// tracer keeps spans in memory until write. Spans nest by call order:
// begin pushes onto a stack, end pops. A nil *tracer records nothing, so
// the untraced run drives the very same code with tracing off.
type tracer struct {
	t0       time.Time
	workload string
	run      string
	spans    []span
	stack    []int
}

func newTracer(workload, run string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, run: run}
}

// begin opens a span under the innermost open span and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Workload: t.workload, Run: t.run, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.spans[id].End = now
	t.stack = t.stack[:n-1]
}

// in runs fn inside a span and returns the span's duration in seconds
// (measured the same way with a nil tracer).
func (t *tracer) in(name string, fn func()) float64 {
	id := t.begin(name)
	d := timed(fn)
	t.end(id)
	return d
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its direct children cover — the time spent in the layer itself.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// checkTree verifies span-tree integrity: IDs are positions, exactly one
// root, every span closed, every child inside its parent, and one
// workload/run ID throughout.
func checkTree(spans []span) error {
	if len(spans) == 0 {
		return fmt.Errorf("trace: no spans")
	}
	roots := 0
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("trace: span at %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) ends before it starts (never closed?)", i, s.Name)
		}
		if s.Workload != spans[0].Workload || s.Run != spans[0].Run {
			return fmt.Errorf("trace: span %d (%s) belongs to another run", i, s.Name)
		}
		if s.Parent == -1 {
			roots++
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("trace: span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("trace: span %d (%s) leaves its parent %d (%s)", i, s.Name, p.ID, p.Name)
		}
	}
	if roots != 1 {
		return fmt.Errorf("trace: %d roots, want 1", roots)
	}
	return nil
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Run      string `json:"run"`
	Host     host   `json:"host"`
	Spans    []span `json:"spans"`
}

// write stores the spans as JSON, creating the directory.
func (t *tracer) write(path string, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: t.workload, Run: t.run, Host: h, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
