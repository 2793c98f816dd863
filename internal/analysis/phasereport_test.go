package analysis

import (
	"testing"

	"lbmib/internal/fusereport"
)

func loadModulePkgs(t *testing.T) []*Package {
	t.Helper()
	prog, err := NewProgram("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := prog.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func dumpReport(t *testing.T, rep *fusereport.Report) {
	for _, e := range rep.Engines {
		for _, b := range e.Barriers {
			t.Logf("%s/%s after=%s class=%s cond=%q conflicts=%v", e.Engine, b.Site,
				b.AfterPhase, b.Classification, b.FoldCondition, b.Conflicts)
			for _, sv := range b.Scenarios {
				t.Logf("    %-28s active=%-5v %-8s %v", sv.Scenario, sv.Active, sv.Verdict, sv.Conflicts)
			}
		}
	}
}

// TestFusibilityRealModule pins the analyzer's verdicts for every
// barrier site of all three engines against the hand-derived ground
// truth (DESIGN.md §16): the spread→interpolate barrier is required
// with the right field, and the folded end-of-step barrier is proven
// fusible.
func TestFusibilityRealModule(t *testing.T) {
	pkgs := loadModulePkgs(t)
	rep, diags := BuildFuseReport(pkgs)
	for _, d := range diags {
		t.Errorf("unexpected phasecheck diagnostic: %s", d.Message)
	}
	if err := rep.Validate(); err != nil {
		dumpReport(t, rep)
		t.Fatalf("report invalid: %v", err)
	}
	if u := rep.Unclassified(); len(u) != 0 {
		t.Errorf("unclassified sites: %v", u)
	}

	want := map[string]string{
		// cube: Algorithm 4's four sites.
		"cube/after_spread":   fusereport.VerdictFusible,
		"cube/after_stream":   fusereport.VerdictRequired,
		"cube/after_velocity": fusereport.VerdictRequired,
		"cube/end_of_step":    fusereport.VerdictFusible,
		// omp: nine per-kernel region joins. Three of them (stretch →
		// elastic, elastic → spread, collide → stream) touch only
		// thread-own data on both sides and were "required" solely under
		// the retired dynamic schedule, where a thread's chunks move
		// between regions; under the static schedule — now the only one —
		// their single scenario has always been conflict-free.
		"omp/after_bend":    fusereport.VerdictFusible,
		"omp/after_stretch": fusereport.VerdictFusible,
		"omp/after_elastic": fusereport.VerdictFusible,
		"omp/after_spread":  fusereport.VerdictRequired,
		"omp/after_collide": fusereport.VerdictFusible,
		"omp/after_stream":  fusereport.VerdictRequired,
		"omp/after_update":  fusereport.VerdictRequired,
		"omp/after_move":    fusereport.VerdictFusible,
		"omp/after_copy":    fusereport.VerdictFusible,
		// fused: the two wavefront barriers.
		"fused/after_stream": fusereport.VerdictRequired,
		"fused/end_of_step":  fusereport.VerdictRequired,
	}
	got := map[string]string{}
	for _, e := range rep.Engines {
		for _, b := range e.Barriers {
			got[e.Engine+"/"+b.Site] = b.Classification
		}
	}
	bad := false
	for site, class := range want {
		if got[site] != class {
			t.Errorf("%s: classified %q, want %q", site, got[site], class)
			bad = true
		}
	}
	for site := range got {
		if _, ok := want[site]; !ok {
			t.Errorf("unexpected site %s", site)
			bad = true
		}
	}

	// The spread→interpolate proof: the after-velocity barrier is what
	// separates kernel 7's velocity writes from kernel 8's interpolation
	// reads — the conflict must name the velocity field at gather extent.
	if b := rep.Find("cube", "after_velocity"); b != nil {
		found := false
		for _, c := range b.Conflicts {
			if c.Field == "node.Vel" && c.Stencil == "gather" {
				found = true
			}
		}
		if !found {
			t.Errorf("cube/after_velocity conflicts = %v, want node.Vel at gather", b.Conflicts)
		}
	}
	// The streaming barrier names the distribution buffer at neighbor
	// extent in every engine: cube and omp push post-collision values to
	// the neighbors' next buffer, the fused sweep pulls the neighbors'
	// present buffer, so the conflicting parity differs by design.
	streamSlot := map[string]string{"cube": "node.DF[next]", "omp": "node.DF[next]", "fused": "node.DF[cur]"}
	for engine, field := range streamSlot {
		b := rep.Find(engine, "after_stream")
		if b == nil {
			continue
		}
		found := false
		for _, c := range b.Conflicts {
			if c.Field == field && c.Stencil == "neighbor" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s/after_stream conflicts = %v, want %s at neighbor", engine, b.Conflicts, field)
		}
	}
	// The folded cube end-of-step barrier: every scenario the fold
	// engages (fluid, swap-path, minimal schedule) must be conflict-free.
	if b := rep.Find("cube", "end_of_step"); b != nil {
		for _, sv := range b.Scenarios {
			if !sv.Active && len(sv.Conflicts) != 0 {
				t.Errorf("cube/end_of_step folded scenario %s has conflicts %v", sv.Scenario, sv.Conflicts)
			}
		}
	}
	if bad || testing.Verbose() {
		dumpReport(t, rep)
	}
}
