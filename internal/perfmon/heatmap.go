package perfmon

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/telemetry"
)

// CubeHeatmap accumulates the cube engine's block events — per-cube
// per-phase work samples: which cubes are expensive, which thread pays
// for them. All accumulation is atomic.
type CubeHeatmap struct {
	cx, cy, cz, k int
	threads       int
	// nanos[cube*(NumPhases+1)+phase], counts likewise; lastTid stores
	// tid+1 of the most recent worker to touch the cube (0 = untouched).
	nanos   []atomic.Int64
	counts  []atomic.Int64
	lastTid []atomic.Int64
	// threadNanos[tid*(NumPhases+1)+phase] backs the trace counter tracks.
	threadNanos []atomic.Int64
}

// NewCubeHeatmap sizes a heatmap for a CX×CY×CZ cube mesh of k-sized
// cubes processed by the given thread count.
func NewCubeHeatmap(cx, cy, cz, k, threads int) *CubeHeatmap {
	n := cx * cy * cz
	return &CubeHeatmap{
		cx: cx, cy: cy, cz: cz, k: k, threads: threads,
		nanos:       make([]atomic.Int64, n*(core.NumPhases+1)),
		counts:      make([]atomic.Int64, n*(core.NumPhases+1)),
		lastTid:     make([]atomic.Int64, n),
		threadNanos: make([]atomic.Int64, threads*(core.NumPhases+1)),
	}
}

// NumCubes returns the heatmap's cube count.
func (h *CubeHeatmap) NumCubes() int { return h.cx * h.cy * h.cz }

// Emit implements core.Probe, keeping block events.
func (h *CubeHeatmap) Emit(e core.Event) {
	tid, c, p, d := e.Tid, e.Block, e.Phase, e.D
	if e.Kind != core.BlockDone || c < 0 || c >= h.NumCubes() || p < 1 || p > core.NumPhases {
		return
	}
	h.nanos[c*(core.NumPhases+1)+int(p)].Add(int64(d))
	h.counts[c*(core.NumPhases+1)+int(p)].Add(1)
	if tid >= 0 && tid < h.threads {
		h.lastTid[c].Store(int64(tid) + 1)
		h.threadNanos[tid*(core.NumPhases+1)+int(p)].Add(int64(d))
	}
}

// CubeTime returns cube c's accumulated time in phase p.
func (h *CubeHeatmap) CubeTime(c int, p core.Phase) time.Duration {
	if c < 0 || c >= h.NumCubes() || p < 1 || p > core.NumPhases {
		return 0
	}
	return time.Duration(h.nanos[c*(core.NumPhases+1)+int(p)].Load())
}

// CubeTotal returns cube c's accumulated time over all phases.
func (h *CubeHeatmap) CubeTotal(c int) time.Duration {
	if c < 0 || c >= h.NumCubes() {
		return 0
	}
	var t int64
	for p := 1; p <= core.NumPhases; p++ {
		t += h.nanos[c*(core.NumPhases+1)+p].Load()
	}
	return time.Duration(t)
}

// Owner returns the last thread observed working cube c (−1 if none).
func (h *CubeHeatmap) Owner(c int) int {
	if c < 0 || c >= h.NumCubes() {
		return -1
	}
	return int(h.lastTid[c].Load()) - 1
}

// heatmapJSON is the schema-versioned export.
type heatmapJSON struct {
	Schema  string        `json:"schema"`
	CX      int           `json:"cx"`
	CY      int           `json:"cy"`
	CZ      int           `json:"cz"`
	K       int           `json:"cubeSize"`
	Threads int           `json:"threads"`
	Phases  []string      `json:"phases"`
	Cubes   []heatmapCube `json:"cubes"`
}

type heatmapCube struct {
	Cube       int     `json:"cube"`
	CX         int     `json:"cx"`
	CY         int     `json:"cy"`
	CZ         int     `json:"cz"`
	Owner      int     `json:"owner"`
	PhaseNanos []int64 `json:"phaseNanos"` // indexed like Phases
	TotalNanos int64   `json:"totalNanos"`
}

// HeatmapSchema identifies the JSON export format.
const HeatmapSchema = "lbmib-heatmap/v1"

// WriteJSON exports the heatmap as one schema-versioned JSON document.
func (h *CubeHeatmap) WriteJSON(w io.Writer) error {
	doc := heatmapJSON{
		Schema: HeatmapSchema,
		CX:     h.cx, CY: h.cy, CZ: h.cz, K: h.k, Threads: h.threads,
	}
	for p := core.Phase(1); p <= core.NumPhases; p++ {
		doc.Phases = append(doc.Phases, p.String())
	}
	for c := 0; c < h.NumCubes(); c++ {
		cz := c % h.cz
		cy := (c / h.cz) % h.cy
		cx := c / (h.cy * h.cz)
		row := heatmapCube{Cube: c, CX: cx, CY: cy, CZ: cz, Owner: h.Owner(c)}
		var total int64
		for p := 1; p <= core.NumPhases; p++ {
			v := h.nanos[c*(core.NumPhases+1)+p].Load()
			row.PhaseNanos = append(row.PhaseNanos, v)
			total += v
		}
		row.TotalNanos = total
		doc.Cubes = append(doc.Cubes, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTSV exports one row per cube (cube index, coordinates, owner,
// per-phase nanoseconds, total) — loadable by a spreadsheet or gnuplot
// for a quick heatmap rendering.
func (h *CubeHeatmap) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprint(w, "cube\tcx\tcy\tcz\towner"); err != nil {
		return err
	}
	for p := core.Phase(1); p <= core.NumPhases; p++ {
		if _, err := fmt.Fprintf(w, "\t%s_ns", p.String()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "\ttotal_ns"); err != nil {
		return err
	}
	for c := 0; c < h.NumCubes(); c++ {
		cz := c % h.cz
		cy := (c / h.cz) % h.cy
		cx := c / (h.cy * h.cz)
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d", c, cx, cy, cz, h.Owner(c)); err != nil {
			return err
		}
		var total int64
		for p := 1; p <= core.NumPhases; p++ {
			v := h.nanos[c*(core.NumPhases+1)+p].Load()
			total += v
			if _, err := fmt.Fprintf(w, "\t%d", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "\t%d\n", total); err != nil {
			return err
		}
	}
	return nil
}

// EmitCounters writes one Chrome-trace counter sample per worker thread
// into tr: a stacked per-phase breakdown of the nanoseconds the thread
// spent on cube work, rendered by the trace viewer as counter tracks
// alongside the phase slices.
func (h *CubeHeatmap) EmitCounters(tr *telemetry.Tracer) {
	if tr == nil {
		return
	}
	for tid := 0; tid < h.threads; tid++ {
		vals := make(map[string]any, core.NumPhases)
		for p := core.Phase(1); p <= core.NumPhases; p++ {
			vals[p.String()] = h.threadNanos[tid*(core.NumPhases+1)+int(p)].Load()
		}
		tr.Counter(tid, "cube_work_nanos", vals)
	}
}
