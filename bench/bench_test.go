package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
		{[]float64{10, 20, 30, 40, 50}, 100, 50},
		{[]float64{10, 20, 30, 40, 50}, 95, 48},
		{[]float64{7}, 95, 7},
	} {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// Values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2.5, 3.5, 1.0, 9.0, 4.0, 4.5, 7.0}, 2.5, 7.0},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "setup", Start: 5, End: 25},
		{ID: 2, Parent: 1, Name: "lbmib.New", Start: 6, End: 20},
		{ID: 3, Parent: 0, Name: "block[0]", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "step[0]", Start: 30, End: 55},
		{ID: 5, Parent: 3, Name: "step[1]", Start: 55, End: 88},
	}
	want := []int64{20, 6, 14, 2, 25, 33}
	for id, got := range selfTimes(spans) {
		if got != want[id] {
			t.Errorf("self time of %s = %d, want %d", spans[id].Name, got, want[id])
		}
	}
	if err := checkTree(spans); err != nil {
		t.Errorf("well-formed tree rejected: %v", err)
	}
}

func TestCheckTreeRejectsBrokenTrees(t *testing.T) {
	ok := func() []span {
		return []span{
			{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
			{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
			{ID: 2, Parent: 1, Name: "b", Start: 20, End: 40},
		}
	}
	for name, breakIt := range map[string]func(s []span){
		"two roots":            func(s []span) { s[1].Parent = -1 },
		"child outlives":       func(s []span) { s[2].End = 60 },
		"child starts early":   func(s []span) { s[1].Start = -5 },
		"never closed":         func(s []span) { s[2].End = 0 },
		"forward parent":       func(s []span) { s[1].Parent = 2 },
		"foreign run":          func(s []span) { s[2].Run = "other" },
		"id is not a position": func(s []span) { s[2].ID = 7 },
	} {
		s := ok()
		breakIt(s)
		if checkTree(s) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if checkTree(nil) == nil {
		t.Error("empty trace accepted")
	}
}

func TestTracerNestsAndNilTracerIsSilent(t *testing.T) {
	tr := newTracer("w", "r")
	root := tr.begin("run")
	tr.in("a", func() { tr.in("b", func() {}) })
	tr.end(root)
	if err := checkTree(tr.spans); err != nil {
		t.Fatal(err)
	}
	if tr.spans[2].Parent != 1 || tr.spans[1].Parent != 0 {
		t.Errorf("parents = %d, %d; want 0, 1", tr.spans[1].Parent, tr.spans[2].Parent)
	}
	var off *tracer
	ran := false
	off.in("x", func() { ran = true })
	off.end(off.begin("y"))
	if !ran {
		t.Error("nil tracer did not run the function")
	}
}

func TestReferenceKernelConservesMass(t *testing.T) {
	g := newRefGrid()
	m0 := g.mass()
	for i := 0; i < 5; i++ {
		g.sweep()
	}
	if drift := math.Abs(g.mass()-m0) / m0; drift > 1e-12 {
		t.Errorf("reference kernel drifts mass by %.3e over 5 sweeps", drift)
	}
	if g.nodes[100].u == (newRefGrid().nodes[100].u) {
		t.Error("reference flow did not evolve")
	}
}

func TestSeedDeterminesConfig(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.config(7, 2), w.config(7, 2), w.config(8, 2)
		if a.BodyForce != b.BodyForce || a.LidVelocity != b.LidVelocity {
			t.Errorf("%s: same seed, different inputs", w.name)
		}
		if a.BodyForce == c.BodyForce && a.LidVelocity == c.LidVelocity {
			t.Errorf("%s: different seeds, same inputs", w.name)
		}
		for _, v := range append(a.BodyForce[:], a.LidVelocity[:]...) {
			if v != 0 && (math.Abs(v) < 0.9*math.Min(bodyForce, 0.05) || math.Abs(v) > 1.1*0.05) {
				t.Errorf("%s: magnitude %g outside the ±10%% jitter", w.name, v)
			}
		}
	}
}

// benchmarkJSON mirrors the keys of /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q: want letters, digits, _ . - only", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the command's default window is %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command %q (or their reasons differ)", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the command", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		name(d.name)
		e := bj.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, command %+v", i, e, d)
		}
		if !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v outside the contract", d.name, d.unit, d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the command", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.name)
		e := bj.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, command %+v", i, e, d)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("per-layer %s: unit %q outside the contract", d.name, d.unit)
		}
	}
}

// TestSmoke drives every workload through both runs at 2 blocks × 2
// steps: every code path, the verification and the trace writer, and
// that exactly the advertised metrics come out.
func TestSmoke(t *testing.T) {
	h := fingerprint()
	if err := h.guard(); err != nil {
		t.Skip(err)
	}
	opt := options{seed: 1, seconds: runSeconds, smoke: true}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, opt, h, traced, io.Discard, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				}
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, "trace_"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		if err := checkTree(tf.Spans); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if tf.Workload != w.name || tf.Host.NProc != h.NProc {
			t.Errorf("%s: trace file carries workload %q, nproc %d", w.name, tf.Workload, tf.Host.NProc)
		}
	}
}
