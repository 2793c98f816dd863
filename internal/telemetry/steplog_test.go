package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestStepLoggerWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewStepLogger(&buf)
	for i := 1; i <= 3; i++ {
		if err := l.Log(StepRecord{Step: i, Mass: 4096, MaxVel: 0.01 * float64(i),
			KernelMillis: 1.5, MLUPS: 2.25}); err != nil {
			t.Fatal(err)
		}
	}
	sc := bufio.NewScanner(&buf)
	var steps []int
	for sc.Scan() {
		var rec StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", sc.Text(), err)
		}
		steps = append(steps, rec.Step)
		if rec.Mass != 4096 || rec.MLUPS != 2.25 {
			t.Fatalf("record round-trip mismatch: %+v", rec)
		}
	}
	if len(steps) != 3 || steps[0] != 1 || steps[2] != 3 {
		t.Fatalf("steps = %v, want [1 2 3]", steps)
	}
}

func TestStepLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewStepLogger(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Log(StepRecord{Step: i}) //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	lines := strings.Count(buf.String(), "\n")
	if lines != 400 {
		t.Fatalf("got %d lines, want 400", lines)
	}
}

func TestStepRecordUnhealthyRoundTrip(t *testing.T) {
	he := &HealthError{
		Step: 7, Reason: "non-finite state at node (1,2,3): rho=NaN",
		Cell: [3]int{1, 2, 3}, HasCell: true, Cube: 5, CubeSize: 4,
		Phase: "update_velocity",
	}
	var buf bytes.Buffer
	l := NewStepLogger(&buf)
	if err := l.Log(StepRecord{Step: 7, Mass: 1, MaxVel: 2, Unhealthy: he.Record()}); err != nil {
		t.Fatal(err)
	}
	var rec StepRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	u := rec.Unhealthy
	if u == nil || u.Step != 7 || u.Cube != 5 || u.Phase != "update_velocity" || len(u.Cell) != 3 || u.Cell[2] != 3 {
		t.Fatalf("unhealthy record lost fields: %+v", u)
	}
	if (*HealthError)(nil).Record() != nil {
		t.Fatal("nil HealthError must map to nil record")
	}
	// One rule for "not localized": no tile size, no cube.
	if r := (&HealthError{Step: 2, Reason: "x", Cube: 3}).Record(); r.Cube != -1 {
		t.Fatalf("tile-less HealthError names cube %d, want -1", r.Cube)
	}
	// Healthy records must not grow an unhealthy key.
	buf.Reset()
	if err := l.Log(StepRecord{Step: 8}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("unhealthy")) {
		t.Fatalf("healthy record leaked unhealthy field: %s", buf.String())
	}
}
