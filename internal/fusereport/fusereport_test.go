package fusereport

import (
	"path/filepath"
	"strings"
	"testing"
)

func sample() *Report {
	return &Report{
		Schema: Schema,
		Engines: []Engine{{
			Engine: "cube",
			Barriers: []Barrier{
				{
					Site:           "after_stream",
					AfterPhase:     "collide_stream",
					Classification: VerdictRequired,
					Conflicts: []Conflict{{
						Field: "node.DF[next]", Kind: "write-read", Stencil: "neighbor",
						Before: "collide_stream", After: "update_velocity",
					}},
					Scenarios: []ScenarioVerdict{{
						Scenario: "fluid+swap+minimal", Active: true, Verdict: VerdictRequired,
						Conflicts: []Conflict{{
							Field: "node.DF[next]", Kind: "write-read", Stencil: "neighbor",
							Before: "collide_stream", After: "update_velocity",
						}},
					}},
				},
				{
					Site:           "end_of_step",
					AfterPhase:     "swap_distribution",
					Classification: VerdictFusible,
					FoldCondition:  "multi && fibers",
					Scenarios: []ScenarioVerdict{{
						Scenario: "fluid+swap+minimal", Active: false, Verdict: VerdictFusible,
					}},
				},
			},
		}},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Report)
		want string
	}{
		{"schema", func(r *Report) { r.Schema = "lbmib-fuse/v0" }, "schema"},
		{"no engines", func(r *Report) { r.Engines = nil }, "no engines"},
		{"no barriers", func(r *Report) { r.Engines[0].Barriers = nil }, "no barrier sites"},
		{"empty site", func(r *Report) { r.Engines[0].Barriers[0].Site = "" }, "empty site"},
		{"bad class", func(r *Report) { r.Engines[0].Barriers[0].Classification = "maybe" }, "bad classification"},
		{"required bare", func(r *Report) { r.Engines[0].Barriers[0].Conflicts = nil }, "without a named conflict"},
		{"conflict field", func(r *Report) { r.Engines[0].Barriers[0].Conflicts[0].Field = "" }, "missing field"},
		{"bad verdict", func(r *Report) { r.Engines[0].Barriers[1].Scenarios[0].Verdict = "x" }, "bad verdict"},
	}
	for _, tc := range cases {
		r := sample()
		tc.mut(r)
		err := r.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestRoundTripAndLookups(t *testing.T) {
	r := sample()
	path := filepath.Join(t.TempDir(), "fuse.json")
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if b := got.Find("cube", "end_of_step"); b == nil || b.Classification != VerdictFusible {
		t.Fatalf("Find(cube, end_of_step) = %+v", b)
	}
	if b := got.FindEngine("cube").SiteAfterPhase("collide_stream"); b == nil || b.Site != "after_stream" {
		t.Fatalf("SiteAfterPhase(collide_stream) = %+v", b)
	}
	if got.Find("cube", "nope") != nil || got.Find("omp", "after_stream") != nil {
		t.Fatal("lookup of absent engine/site should return nil")
	}
	if len(got.Unclassified()) != 0 {
		t.Fatalf("Unclassified = %v, want empty", got.Unclassified())
	}
	got.Engines[0].Barriers[0].Classification = ""
	got.Engines[0].Barriers[0].Conflicts = nil
	if u := got.Unclassified(); len(u) != 1 || u[0] != "cube/after_stream" {
		t.Fatalf("Unclassified = %v", u)
	}

	// Marshal must be byte-stable: regenerating the same report yields
	// identical bytes (verify.sh cmp-gates the committed report on this).
	a, _ := sample().Marshal()
	b, _ := sample().Marshal()
	if string(a) != string(b) {
		t.Fatal("Marshal is not deterministic")
	}
}

// FuzzFusibilityReport: decoding arbitrary bytes never panics, and any
// report that decodes successfully re-encodes to a decodable report with
// the schema version enforced throughout.
func FuzzFusibilityReport(f *testing.F) {
	seed, err := sample().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":"lbmib-fuse/v1"}`))
	f.Add([]byte(`{"schema":"lbmib-fuse/v2","engines":[{"engine":"cube","barriers":[{"site":"x"}]}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		if r.Schema != Schema {
			t.Fatalf("Decode accepted schema %q", r.Schema)
		}
		out, err := r.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of valid report failed: %v", err)
		}
		if _, err := Decode(out); err != nil {
			t.Fatalf("round-trip of valid report failed: %v", err)
		}
		r.Unclassified()
		r.Find("cube", "end_of_step")
	})
}
