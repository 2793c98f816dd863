package lbmib

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"
)

func fuzzRestoreCfg() Config {
	return Config{NX: 4, NY: 4, NZ: 4, Tau: 0.7, Sheets: []*SheetConfig{{
		NumFibers: 2, NodesPerFiber: 3, Width: 1, Height: 2,
		Origin: [3]float64{1.5, 1, 1}, Ks: 0.05, Kb: 0.001, FixedRadius: 0.6,
	}}}
}

// validCheckpoint produces real checkpoint bytes for the fuzz corpus and
// the malformed-input table.
func validCheckpoint(t testing.TB) []byte {
	t.Helper()
	s, err := New(fuzzRestoreCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(2)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gobCheckpoint encodes st as a version-1 gob checkpoint stream.
func gobCheckpoint(t testing.TB, st checkpointState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1Fixture reads the committed version-1 gob checkpoint
// (TestCheckpointV1Fixture describes it).
func v1Fixture(t testing.TB) []byte { return fixture(t, "testdata/checkpoint-v1.gob") }

// v2Fixture reads the committed version-2 block checkpoint
// (TestCheckpointV2Fixture describes it).
func v2Fixture(t testing.TB) []byte { return fixture(t, "testdata/checkpoint-v2.bin") }

func fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// malformedBlockStreams derives broken block-format streams from a valid
// one of fuzzRestoreCfg's shape (one 2×3 sheet), each with a substring
// the error must mention. Offsets follow the header layout in
// checkpoint.go: version at 8, step at 12, sheet count at 32.
func malformedBlockStreams(valid []byte) []struct {
	name, want string
	data       []byte
} {
	patch := func(off int, put func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		put(b[off:])
		return b
	}
	header := 8 + headerBytes + 8
	return []struct {
		name, want string
		data       []byte
	}{
		{"truncated header", "header", valid[:8+headerBytes-3]},
		{"truncated sheet shapes", "header", valid[:header-3]},
		{"truncated fluid", "fluid plane", valid[:header+recordBytes*5]},
		{"truncated sheet", "sheet 0", valid[:len(valid)-2]},
		{"too many sheets", "sheets", patch(32, func(b []byte) { le.PutUint32(b, 1<<31) })},
		{"version 4", "version 4", patch(8, func(b []byte) { le.PutUint32(b, 4) })},
		{"negative step", "negative step", patch(12, func(b []byte) { le.PutUint64(b, 1<<63) })},
		{"bad fixed flag", "fixed flag", patch(len(valid)-1, func(b []byte) { b[0] = 7 })},
	}
}

// FuzzRestore feeds Restore arbitrary bytes. A checkpoint is external
// input, so whatever the decoder is handed the call must return (a
// Simulation or an error) — never panic, hang, or allocate without
// bound. The harness's size cap and recover path are what this target
// exercises.
func FuzzRestore(f *testing.F) {
	valid, v1, v2 := validCheckpoint(f), v1Fixture(f), v2Fixture(f)
	f.Add(valid) // version 3
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	f.Add(v1)
	f.Add(v1[:len(v1)/2])
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	f.Add(gobCheckpoint(f, checkpointState{Version: 99}))
	for _, m := range malformedBlockStreams(valid) {
		f.Add(m.data)
	}

	cfg := fuzzRestoreCfg()
	f.Fuzz(func(t *testing.T, data []byte) {
		sim, err := Restore(bytes.NewReader(data), cfg)
		if err == nil {
			sim.Close()
		}
	})
}
