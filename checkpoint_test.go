package lbmib

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lbmib/internal/grid"
)

// A checkpointed run resumed from the file must continue exactly as if it
// had never stopped.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := baseCfg(Sequential)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Run(14)

	split, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split.Run(6)
	var buf bytes.Buffer
	if err := split.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	split.Close()

	resumed, err := Restore(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.StepCount() != 6 {
		t.Fatalf("restored StepCount = %d, want 6", resumed.StepCount())
	}
	resumed.Run(8)
	if resumed.StepCount() != 14 {
		t.Fatalf("StepCount after resume = %d, want 14", resumed.StepCount())
	}

	// Sequential physics is deterministic, so the resumed run must agree
	// with the uninterrupted one bitwise.
	for z := 0; z < 16; z++ {
		if ref.FluidVelocity(7, 8, z) != resumed.FluidVelocity(7, 8, z) {
			t.Fatalf("velocity differs at z=%d after resume", z)
		}
	}
	rp := ref.SheetPositions()
	sp := resumed.SheetPositions()
	for i := range rp {
		if rp[i] != sp[i] {
			t.Fatalf("sheet node %d differs after resume", i)
		}
	}
}

// The checkpoint is engine-independent: save from sequential, restore
// onto the cube engine.
func TestCheckpointCrossEngine(t *testing.T) {
	seqCfg := baseCfg(Sequential)
	a, err := New(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(7)
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	cubeCfg := baseCfg(CubeBased)
	b, err := Restore(&buf, cubeCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.Run(5)
	b.Run(5)
	for z := 0; z < 16; z++ {
		va, vb := a.FluidVelocity(7, 8, z), b.FluidVelocity(7, 8, z)
		for d := 0; d < 3; d++ {
			if math.Abs(va[d]-vb[d]) > 1e-9 {
				t.Fatalf("cross-engine resume diverges at z=%d: %v vs %v", z, va, vb)
			}
		}
	}
	a.Close()
}

func TestRestoreRejectsMismatchedGrid(t *testing.T) {
	s, err := New(baseCfg(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	bad := baseCfg(Sequential)
	bad.NX = 32
	if _, err := Restore(&buf, bad); err == nil || !strings.Contains(err.Error(), "grid") {
		t.Fatalf("mismatched grid accepted: %v", err)
	}
}

func TestRestoreRejectsMismatchedSheets(t *testing.T) {
	s, err := New(baseCfg(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	bad := baseCfg(Sequential)
	bad.Sheet = nil
	if _, err := Restore(&buf, bad); err == nil || !strings.Contains(err.Error(), "sheet") {
		t.Fatalf("mismatched sheet count accepted: %v", err)
	}
	bad2 := baseCfg(Sequential)
	bad2.Sheet.NumFibers = 5
	buf2 := bytes.Buffer{}
	if err := s.Checkpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(&buf2, bad2); err == nil {
		t.Fatal("mismatched sheet shape accepted")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewBufferString("not a checkpoint"), baseCfg(Sequential)); err == nil {
		t.Fatal("garbage input accepted")
	}
}

// Restore decodes external input, so every malformed stream must come
// back as an error — never a panic or an unbounded allocation. The
// unprefixed rows are version-1 gob streams (the truncated ones cut from
// the committed fixture); the "v2" rows are block-format streams.
func TestRestoreRejectsMalformedStreams(t *testing.T) {
	cfg := fuzzRestoreCfg()
	v1 := v1Fixture(t)

	cases := []struct {
		name string
		data []byte
		want string // substring the error must mention
	}{
		{"empty", nil, "decoding"},
		{"truncated header", v1[:1], "decoding"},
		{"truncated body", v1[:len(v1)/2], "decoding"},
		{"wrong version", gobCheckpoint(t, checkpointState{Version: 99, NX: 4, NY: 4, NZ: 4}), "version"},
		{"node count mismatch", gobCheckpoint(t, checkpointState{
			Version: gobCheckpointVersion, NX: 4, NY: 4, NZ: 4,
			Nodes: make([]grid.Node, 3),
		}), "nodes"},
	}
	for _, m := range malformedBlockStreams(validCheckpoint(t)) {
		cases = append(cases, struct {
			name string
			data []byte
			want string
		}{"v2 " + m.name, m.data, m.want})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := Restore(bytes.NewReader(tc.data), cfg)
			if err == nil {
				sim.Close()
				t.Fatal("malformed stream accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A stream that declares far more state than the target configuration
// can hold must fail instead of allocating the declared amount. A
// version-1 gob stream is decoded whole before anything is checked, so it
// must hit the size cap; a block-format stream is rejected from its
// header before its body is read.
func TestRestoreRejectsOversizedStream(t *testing.T) {
	big, err := New(Config{NX: 24, NY: 24, NZ: 24, Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	var v2 bytes.Buffer
	if err := big.Checkpoint(&v2); err != nil {
		t.Fatal(err)
	}
	v1 := gobCheckpoint(t, checkpointState{
		Version: gobCheckpointVersion, NX: 24, NY: 24, NZ: 24,
		Nodes: big.FluidSnapshot().Nodes,
	})
	small := fuzzRestoreCfg()
	for _, tc := range []struct {
		name string
		data []byte
		want string // substring the error must mention
	}{
		{"v1", v1, "decoding"},
		{"v2", v2.Bytes(), "grid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if int64(len(tc.data)) <= restoreSizeLimit(small) {
				t.Fatalf("test premise broken: %d-byte stream under the %d-byte cap", len(tc.data), restoreSizeLimit(small))
			}
			sim, err := Restore(bytes.NewReader(tc.data), small)
			if err == nil {
				sim.Close()
				t.Fatal("oversized stream accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Restore must reject configurations with a degenerate grid before
// touching the stream at all.
func TestRestoreRejectsDegenerateConfig(t *testing.T) {
	if _, err := Restore(bytes.NewReader(nil), Config{NX: 0, NY: 4, NZ: 4, Tau: 0.7}); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestCheckpointPreservesFixedNodes(t *testing.T) {
	cfg := baseCfg(OpenMP)
	cfg.Sheet.FixedRadius = 1.5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := Restore(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before := r.SheetPositions()
	r.Run(10)
	after := r.SheetPositions()
	// At least the fastened center nodes must not have moved.
	moved, still := 0, 0
	for i := range before {
		if before[i] == after[i] {
			still++
		} else {
			moved++
		}
	}
	if still == 0 {
		t.Fatal("fixed nodes lost in checkpoint (all nodes moved)")
	}
	if moved == 0 {
		t.Fatal("no free node moved after restore")
	}
}

// Checkpoint taken mid-run from the in-place cube engine after an odd
// number of steps — the layout's array is in the swapped phase —
// restored onto the sequential engine. Presenting the natural phase must
// hide the swap entirely: both runs continue on the same trajectory.
func TestCheckpointAcrossSwapBoundaryCubeToSequential(t *testing.T) {
	a, err := New(baseCfg(CubeBased))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Run(7) // odd: the cube layout's array is left swapped here
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Restore(&buf, baseCfg(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Run(5)
	b.Run(5)
	for z := 0; z < 16; z++ {
		va, vb := a.FluidVelocity(7, 8, z), b.FluidVelocity(7, 8, z)
		for d := 0; d < 3; d++ {
			if math.Abs(va[d]-vb[d]) > 1e-9 {
				t.Fatalf("cube→sequential resume diverges at z=%d: %v vs %v", z, va, vb)
			}
		}
	}
	pa, pb := a.SheetPositions(), b.SheetPositions()
	for i := range pa {
		for d := 0; d < 3; d++ {
			if math.Abs(pa[i][d]-pb[i][d]) > 1e-9 {
				t.Fatalf("sheet node %d diverges after cube→sequential resume", i)
			}
		}
	}
}

// The reverse crossing: sequential checkpoint restored onto two in-place
// engines, resumed across another odd step count so the restored runs
// end in the swapped phase.
func TestCheckpointAcrossSwapBoundarySequentialToSwapEngines(t *testing.T) {
	a, err := New(baseCfg(Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Run(7)
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	a.Run(5)
	for _, kind := range []SolverKind{OpenMP, CubeBased} {
		b, err := Restore(bytes.NewReader(buf.Bytes()), baseCfg(kind))
		if err != nil {
			t.Fatal(err)
		}
		b.Run(5)
		for z := 0; z < 16; z++ {
			va, vb := a.FluidVelocity(7, 8, z), b.FluidVelocity(7, 8, z)
			for d := 0; d < 3; d++ {
				if math.Abs(va[d]-vb[d]) > 1e-9 {
					t.Fatalf("sequential→%v resume diverges at z=%d: %v vs %v", kind, z, va, vb)
				}
			}
		}
		b.Close()
	}
}
