package flightrec

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"lbmib/internal/telemetry"
)

// Schema identifies the post-mortem bundle format.
const Schema = "lbmib-flightrec/v1"

// Bundle file names inside the bundle directory.
const (
	ManifestFile     = "manifest.json"
	RingFile         = "ring.json"
	CheckpointFile   = "checkpoint.bin"
	TraceFile        = "trace.json"
	LocalizationFile = "localization.json"
	// CritPathFile is the critical-path profiler's report, present when
	// the facade runs with both the flight recorder and Config.CritPath.
	CritPathFile = "critpath.json"
)

// SheetSpec mirrors lbmib.SheetConfig so a bundle can rebuild the
// configuration without this package importing the facade.
type SheetSpec struct {
	NumFibers     int        `json:"numFibers"`
	NodesPerFiber int        `json:"nodesPerFiber"`
	Width         float64    `json:"width"`
	Height        float64    `json:"height"`
	Origin        [3]float64 `json:"origin"`
	Ks            float64    `json:"ks"`
	Kb            float64    `json:"kb"`
	FixedRadius   float64    `json:"fixedRadius,omitempty"`
}

// RunSpec is the run description embedded in bundles: everything
// lbmib-sim postmortem needs to rebuild an equivalent lbmib.Config and
// Restore the bundled checkpoint into it.
type RunSpec struct {
	NX          int        `json:"nx"`
	NY          int        `json:"ny"`
	NZ          int        `json:"nz"`
	Tau         float64    `json:"tau"`
	BodyForce   [3]float64 `json:"bodyForce"`
	BoundaryX   string     `json:"boundaryX"` // "periodic" | "noslip"
	BoundaryY   string     `json:"boundaryY"`
	BoundaryZ   string     `json:"boundaryZ"`
	LidVelocity [3]float64 `json:"lidVelocity"`
	Solver      string     `json:"solver"`
	Threads     int        `json:"threads"`
	CubeSize    int        `json:"cubeSize,omitempty"`
	// Float32 records the fused engine's reduced-precision distribution
	// storage so a replay uses the same arithmetic contract.
	Float32 bool        `json:"float32,omitempty"`
	Sheets  []SheetSpec `json:"sheets,omitempty"`
}

// Manifest is the bundle's index and provenance record.
type Manifest struct {
	Schema       string                  `json:"schema"`
	Reason       string                  `json:"reason"` // watchdog | crosscheck | panic | manual
	WrittenAt    string                  `json:"writtenAt"`
	Version      string                  `json:"version"`
	GoVersion    string                  `json:"goVersion"`
	LastStep     int                     `json:"lastStep"`
	SnapshotStep int                     `json:"snapshotStep"` // −1 when no checkpoint retained
	TileSize     int                     `json:"tileSize,omitempty"`
	TileGrid     [3]int                  `json:"tileGrid"`
	Health       *telemetry.HealthRecord `json:"health,omitempty"`
	Run          *RunSpec                `json:"run,omitempty"`
	Files        []string                `json:"files"`
}

// ringDoc is the on-disk form of the ring.
type ringDoc struct {
	Schema  string   `json:"schema"`
	Records []Record `json:"records"`
}

// Bundle is a parsed post-mortem bundle.
type Bundle struct {
	Dir          string
	Manifest     Manifest
	Records      []Record
	Localization Localization
	// Checkpoint is the raw last-healthy checkpoint stream (nil when
	// the bundle has none).
	Checkpoint []byte
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteBundle materializes the post-mortem bundle into Config.Dir and
// returns the directory. reason names the trigger ("watchdog",
// "crosscheck", "panic", "manual"); herr, when non-nil, is the latched
// watchdog error embedded in the manifest. Only the first call writes —
// later triggers (a panic after a watchdog latch, say) return the
// already-written bundle so the evidence closest to the failure wins.
func (r *Recorder) WriteBundle(reason string, herr *telemetry.HealthError) (string, error) {
	r.bundleMu.Lock()
	defer r.bundleMu.Unlock()
	if r.bundleDone {
		return r.bundleDir, nil
	}
	if r.cfg.Dir == "" {
		return "", fmt.Errorf("flightrec: no bundle directory configured")
	}
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("flightrec: %w", err)
	}

	records := r.Records()
	tileK, tx, ty, tz := r.tileShape()
	maxVel := 1 / math.Sqrt(3)
	loc := Localize(records, tileK, tx, ty, tz, maxVel)

	files := []string{ManifestFile, RingFile, LocalizationFile, TraceFile}
	if err := writeJSONFile(filepath.Join(r.cfg.Dir, RingFile), ringDoc{Schema: Schema, Records: records}); err != nil {
		return "", fmt.Errorf("flightrec: ring: %w", err)
	}
	if err := writeJSONFile(filepath.Join(r.cfg.Dir, LocalizationFile), loc); err != nil {
		return "", fmt.Errorf("flightrec: localization: %w", err)
	}
	tf, err := os.Create(filepath.Join(r.cfg.Dir, TraceFile))
	if err != nil {
		return "", fmt.Errorf("flightrec: trace: %w", err)
	}
	if err := writeTrace(tf, records); err != nil {
		tf.Close()
		return "", fmt.Errorf("flightrec: trace: %w", err)
	}
	if err := tf.Close(); err != nil {
		return "", fmt.Errorf("flightrec: trace: %w", err)
	}

	ckpt, snapStep := r.snapshotBytes()
	if ckpt != nil {
		if err := os.WriteFile(filepath.Join(r.cfg.Dir, CheckpointFile), ckpt, 0o644); err != nil {
			return "", fmt.Errorf("flightrec: checkpoint: %w", err)
		}
		files = append(files, CheckpointFile)
	}

	// Auxiliary sections are best effort: a failing provider must not
	// cost the core bundle evidence.
	for _, name := range r.auxNames() {
		data, err := r.auxData(name)
		if err != nil || data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(r.cfg.Dir, name), data, 0o644); err != nil {
			continue
		}
		files = append(files, name)
	}

	version := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	r.mu.Lock()
	lastStep := r.lastStep
	var run *RunSpec
	if r.haveRun {
		spec := r.spec
		run = &spec
	}
	r.mu.Unlock()
	man := Manifest{
		Schema:       Schema,
		Reason:       reason,
		WrittenAt:    time.Now().UTC().Format(time.RFC3339),
		Version:      version,
		GoVersion:    runtime.Version(),
		LastStep:     lastStep,
		SnapshotStep: snapStep,
		TileSize:     tileK,
		TileGrid:     [3]int{tx, ty, tz},
		Health:       herr.Record(),
		Run:          run,
		Files:        files,
	}
	if err := writeJSONFile(filepath.Join(r.cfg.Dir, ManifestFile), man); err != nil {
		return "", fmt.Errorf("flightrec: manifest: %w", err)
	}
	r.bundleDone = true
	r.bundleDir = r.cfg.Dir
	return r.bundleDir, nil
}

// BundleDir returns the written bundle's directory, if any.
func (r *Recorder) BundleDir() (string, bool) {
	r.bundleMu.Lock()
	defer r.bundleMu.Unlock()
	return r.bundleDir, r.bundleDone
}

// maxBundleFileSize caps how much ReadBundle will load per file: bundles
// are external input to lbmib-sim postmortem, and a corrupt ring should
// produce a decode error, not an unbounded allocation.
const maxBundleFileSize = 1 << 30

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) > maxBundleFileSize {
		return fmt.Errorf("flightrec: %s exceeds %d bytes", filepath.Base(path), maxBundleFileSize)
	}
	return json.Unmarshal(b, v)
}

// ReadBundle parses a bundle directory written by WriteBundle. A missing
// checkpoint is not an error (healthy-snapshot-free failures); a missing
// or schema-mismatched manifest is.
func ReadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	if err := readJSONFile(filepath.Join(dir, ManifestFile), &b.Manifest); err != nil {
		return nil, fmt.Errorf("flightrec: manifest: %w", err)
	}
	if b.Manifest.Schema != Schema {
		return nil, fmt.Errorf("flightrec: bundle schema %q, want %q", b.Manifest.Schema, Schema)
	}
	var ring ringDoc
	if err := readJSONFile(filepath.Join(dir, RingFile), &ring); err != nil {
		return nil, fmt.Errorf("flightrec: ring: %w", err)
	}
	b.Records = ring.Records
	if err := readJSONFile(filepath.Join(dir, LocalizationFile), &b.Localization); err != nil {
		return nil, fmt.Errorf("flightrec: localization: %w", err)
	}
	if ckpt, err := os.ReadFile(filepath.Join(dir, CheckpointFile)); err == nil {
		b.Checkpoint = ckpt
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("flightrec: checkpoint: %w", err)
	}
	return b, nil
}
