package flightrec

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/grid"
	"lbmib/internal/telemetry"
)

func buildFailedRun(t *testing.T, dir string) *Recorder {
	t.Helper()
	r := New(Config{RingSize: 16, DigestEvery: 1, Dir: dir})
	r.SetRunSpec(RunSpec{NX: 8, NY: 8, NZ: 8, Tau: 0.7, Solver: "cube", Threads: 2, CubeSize: 4,
		BoundaryX: "periodic", BoundaryY: "periodic", BoundaryZ: "periodic"})
	g := grid.New(8, 8, 8)
	d, err := grid.NewDigestGrid(8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 10; step++ {
		if step == 8 {
			g.At(5, 5, 5).Rho = math.Inf(1) // the blow-up
		}
		for k := core.Kernel(1); k <= core.NumKernels; k++ {
			r.Emit(core.Event{Kind: core.KernelDone, Step: step, Kernel: k, D: 100 * time.Microsecond})
		}
		if err := g.Digest(d); err != nil {
			t.Fatal(err)
		}
		r.RecordDigest(step, d)
		r.RecordStep(step, time.Millisecond, 0.5, 0)
		if step == 5 {
			if err := r.TakeSnapshot(step, func(w io.Writer) error {
				_, err := io.WriteString(w, "checkpoint-at-5")
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}

func TestWriteAndReadBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	r := buildFailedRun(t, dir)
	herr := &telemetry.HealthError{
		Step: 8, Reason: "non-finite state at node (5,5,5): rho=+Inf",
		Cell: [3]int{5, 5, 5}, HasCell: true, Cube: 7, CubeSize: 4, Phase: "update_velocity",
	}
	got, err := r.WriteBundle("watchdog", herr)
	if err != nil {
		t.Fatal(err)
	}
	if got != dir {
		t.Fatalf("bundle dir = %q, want %q", got, dir)
	}
	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Schema != Schema || b.Manifest.Reason != "watchdog" {
		t.Fatalf("manifest = %+v", b.Manifest)
	}
	if b.Manifest.LastStep != 10 || b.Manifest.SnapshotStep != 5 {
		t.Fatalf("lastStep=%d snapshotStep=%d", b.Manifest.LastStep, b.Manifest.SnapshotStep)
	}
	if b.Manifest.Health == nil || b.Manifest.Health.Cube != 7 || b.Manifest.Health.Step != 8 {
		t.Fatalf("health = %+v", b.Manifest.Health)
	}
	if b.Manifest.Run == nil || b.Manifest.Run.Solver != "cube" || b.Manifest.Run.NX != 8 {
		t.Fatalf("run spec = %+v", b.Manifest.Run)
	}
	if len(b.Records) != 10 {
		t.Fatalf("ring has %d records, want 10", len(b.Records))
	}
	if string(b.Checkpoint) != "checkpoint-at-5" {
		t.Fatalf("checkpoint = %q", b.Checkpoint)
	}
	// Localization: the Inf appears at step 8 in the cube holding (5,5,5)
	// — tile (1,1,1) of the 2×2×2 tile grid, flat index 7.
	if !b.Localization.Found || b.Localization.Step != 8 || b.Localization.Cube != 7 {
		t.Fatalf("localization = %+v", b.Localization)
	}
	if b.Localization.Kind != KindNonFinite {
		t.Fatalf("kind = %q", b.Localization.Kind)
	}
	// The trace must be valid Chrome trace JSON with step slices.
	raw, err := os.ReadFile(filepath.Join(dir, TraceFile))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	steps, kernels := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev["cat"] {
		case "step":
			steps++
		case "kernel":
			kernels++
		}
	}
	if steps != 10 || kernels != 10*int(core.NumKernels) {
		t.Fatalf("trace has %d step and %d kernel slices", steps, kernels)
	}
}

func TestWriteBundleOnlyOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	r := buildFailedRun(t, dir)
	first, err := r.WriteBundle("watchdog", nil)
	if err != nil {
		t.Fatal(err)
	}
	man1, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.WriteBundle("panic", nil)
	if err != nil || second != first {
		t.Fatalf("second WriteBundle = %q, %v", second, err)
	}
	man2, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(man1) != string(man2) {
		t.Fatal("second trigger overwrote the first bundle")
	}
	if got, ok := r.BundleDir(); !ok || got != dir {
		t.Fatalf("BundleDir = %q, %v", got, ok)
	}
}

func TestWriteBundleWithoutDir(t *testing.T) {
	r := New(Config{})
	if _, err := r.WriteBundle("manual", nil); err == nil {
		t.Fatal("dir-less bundle write succeeded")
	}
}

func TestReadBundleRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestFile),
		[]byte(`{"schema":"lbmib-flightrec/v999"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch accepted: %v", err)
	}
	if _, err := ReadBundle(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing bundle accepted")
	}
}

func TestBundleWithoutSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	r := New(Config{RingSize: 4, Dir: dir})
	r.RecordStep(1, time.Millisecond, 1, 0)
	if _, err := r.WriteBundle("manual", nil); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Checkpoint != nil || b.Manifest.SnapshotStep != -1 {
		t.Fatalf("snapshot-free bundle: ckpt=%v step=%d", b.Checkpoint, b.Manifest.SnapshotStep)
	}
	if b.Localization.Found {
		t.Fatalf("digest-free ring localized: %+v", b.Localization)
	}
}

// TestParentManifestDecodes: a manifest written by lbmib-sim -flightrec
// before the manifest and the step log shared one HealthError record
// (a cube run that crossed the speed limit at step 12) decodes with
// every health field intact.
func TestParentManifestDecodes(t *testing.T) {
	var m Manifest
	if err := readJSONFile(filepath.Join("testdata", "parent-manifest.json"), &m); err != nil {
		t.Fatal(err)
	}
	h := m.Health
	if m.Schema != Schema || m.Reason != "watchdog" || h == nil {
		t.Fatalf("manifest schema=%q reason=%q health=%+v", m.Schema, m.Reason, h)
	}
	if h.Step != 12 || h.Cube != 0 || h.Phase != "update_velocity" || len(h.Cell) != 3 ||
		!strings.HasPrefix(h.Reason, "max speed") {
		t.Fatalf("health = %+v", h)
	}
	if m.Run == nil || m.Run.Solver != "cube" || m.Run.CubeSize != 4 || m.TileSize != 4 {
		t.Fatalf("run = %+v, tileSize %d", m.Run, m.TileSize)
	}
}

// Bundles written while the cluster engine existed carry a
// clusterPhaseSeconds array in every ring record. The field is gone from
// Record; such a bundle must still decode with its other fields intact.
func TestReadBundleIgnoresRetiredClusterField(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	r := buildFailedRun(t, dir)
	if _, err := r.WriteBundle("watchdog", nil); err != nil {
		t.Fatal(err)
	}
	ringPath := filepath.Join(dir, RingFile)
	raw, err := os.ReadFile(ringPath)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.ReplaceAll(string(raw), `"phaseSeconds":`,
		`"clusterPhaseSeconds": [0, 0.25, 0, 0, 0, 0], "phaseSeconds":`)
	if old == string(raw) {
		t.Fatal("ring.json has no phaseSeconds key to anchor the injection on")
	}
	if err := os.WriteFile(ringPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatalf("bundle with the retired field rejected: %v", err)
	}
	if len(b.Records) != 10 || b.Records[9].Step != 10 {
		t.Fatalf("decoded %d records, last step %d", len(b.Records), b.Records[len(b.Records)-1].Step)
	}
	if ks := b.Records[0].KernelSeconds[0]; ks < 0.9e-4 || ks > 1.1e-4 {
		t.Fatalf("kernelSeconds lost beside the retired field: %g", ks)
	}
}

// Bundles written while the task-scheduled engine existed name it in
// run.solver. The engine is retired, but such a bundle must still decode
// with its run spec as written: replaying it is the caller's decision.
func TestReadBundleKeepsRetiredSolverName(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	r := buildFailedRun(t, dir)
	if _, err := r.WriteBundle("watchdog", nil); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, ManifestFile)
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(raw), `"solver": "cube"`, `"solver": "taskflow"`, 1)
	if old == string(raw) {
		t.Fatal("manifest.json has no cube solver to rename")
	}
	if err := os.WriteFile(manPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatalf("bundle naming the retired engine rejected: %v", err)
	}
	if m := b.Manifest; m.Run == nil || m.Run.Solver != "taskflow" || m.Run.CubeSize != 4 || m.LastStep != 10 {
		t.Fatalf("manifest = %+v, run %+v", m, m.Run)
	}
	if len(b.Records) != 10 {
		t.Fatalf("decoded %d records, want 10", len(b.Records))
	}
}

// A bundle written while the fused engine could store its distributions
// in float32 carries "float32": true in its run spec. It still decodes,
// the flag intact, so a reader can print it and a replay can refuse it.
func TestReadBundleKeepsFloat32RunSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	r := buildFailedRun(t, dir)
	if _, err := r.WriteBundle("watchdog", nil); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, ManifestFile)
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"float32"`) {
		t.Fatal("a bundle written today records float32 storage")
	}
	old := strings.Replace(string(raw), `"solver": "cube"`, `"solver": "fused", "float32": true`, 1)
	if old == string(raw) {
		t.Fatal("manifest.json has no solver to rewrite")
	}
	if err := os.WriteFile(manPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatalf("bundle recording float32 storage rejected: %v", err)
	}
	if m := b.Manifest; m.Run == nil || !m.Run.Float32 || m.Run.Solver != "fused" || m.LastStep != 10 {
		t.Fatalf("manifest = %+v, run %+v", m, m.Run)
	}
	if len(b.Records) != 10 {
		t.Fatalf("decoded %d records, want 10", len(b.Records))
	}
}
