package flightrec

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"lbmib/internal/core"
	"lbmib/internal/grid"
)

func TestRingKeepsLastN(t *testing.T) {
	r := New(Config{RingSize: 4, DigestEvery: 1})
	for step := 1; step <= 10; step++ {
		r.Emit(core.Event{Kind: core.KernelDone, Step: step, Kernel: core.KComputeCollision, D: time.Millisecond})
		r.RecordStep(step, 2*time.Millisecond, 1.5, 0)
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		want := 7 + i // steps 7..10, oldest first
		if rec.Step != want {
			t.Fatalf("record %d is step %d, want %d", i, rec.Step, want)
		}
		if rec.KernelSeconds[core.KComputeCollision-1] == 0 {
			t.Fatalf("step %d lost its kernel time", rec.Step)
		}
		if rec.WallSeconds != 0.002 {
			t.Fatalf("step %d wall = %g", rec.Step, rec.WallSeconds)
		}
	}
	if r.LastStep() != 10 {
		t.Fatalf("LastStep = %d, want 10", r.LastStep())
	}
}

func TestRingSlotReuseClearsEvictedStep(t *testing.T) {
	r := New(Config{RingSize: 2})
	r.Emit(core.Event{Kind: core.KernelDone, Step: 1, Kernel: core.KMoveFibers, D: time.Second})
	r.RecordStep(1, time.Second, 0, 0.5)
	// Step 3 lands on step 1's slot and must not inherit its timings.
	r.RecordStep(3, time.Millisecond, 0, 0)
	recs := r.Records()
	var found bool
	for _, rec := range recs {
		if rec.Step == 3 {
			found = true
			if rec.KernelSeconds[core.KMoveFibers-1] != 0 || rec.BarrierWaitShare != 0 {
				t.Fatalf("step 3 inherited evicted state: %+v", rec)
			}
		}
		if rec.Step == 1 {
			t.Fatal("evicted step 1 still visible")
		}
	}
	if !found {
		t.Fatal("step 3 not recorded")
	}
}

func TestObserversAggregate(t *testing.T) {
	r := New(Config{RingSize: 8})
	for tid := 0; tid < 4; tid++ {
		r.Emit(core.Event{Kind: core.PhaseDone, Step: 2, Tid: tid, Phase: core.PhaseCollideStream, D: 10 * time.Millisecond})
	}
	r.RecordStep(2, 40*time.Millisecond, 0, 0)
	recs := r.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	got := recs[0].PhaseSeconds[core.PhaseCollideStream-1]
	if got < 0.039 || got > 0.041 {
		t.Fatalf("phase sum = %g, want 0.04", got)
	}
	// Out-of-range enum values must be ignored, not crash or corrupt.
	r.Emit(core.Event{Kind: core.KernelDone, Step: 2, D: time.Second})
	r.Emit(core.Event{Kind: core.KernelDone, Step: 2, Kernel: core.NumKernels + 1, D: time.Second})
	r.Emit(core.Event{Kind: core.PhaseDone, Step: 2, D: time.Second})
}

func TestRecordDigestCopiesTiles(t *testing.T) {
	r := New(Config{RingSize: 4})
	g := grid.New(4, 4, 4)
	d, err := grid.NewDigestGrid(4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Digest(d); err != nil {
		t.Fatal(err)
	}
	r.RecordDigest(1, d)
	// Mutating the digest afterwards must not reach the ring.
	d.Tiles[0].Mass = -1
	recs := r.Records()
	if len(recs) != 1 || !recs[0].HasDigest {
		t.Fatalf("digest record missing: %+v", recs)
	}
	if recs[0].Digests[0].Mass < 0 {
		t.Fatal("ring aliases the driver's digest")
	}
	if recs[0].Mass != d.Mass || len(recs[0].Digests) != d.NumTiles() {
		t.Fatalf("digest aggregates lost: %+v", recs[0])
	}
	k, tx, ty, tz := r.tileShape()
	if k != 2 || tx != 2 || ty != 2 || tz != 2 {
		t.Fatalf("tile shape = %d/%d×%d×%d", k, tx, ty, tz)
	}
}

func TestCadencePredicates(t *testing.T) {
	r := New(Config{DigestEvery: 4, SnapshotEvery: 8})
	if !r.WantDigest(8) || r.WantDigest(3) || !r.WantSnapshot(16) || r.WantSnapshot(4) {
		t.Fatal("cadence predicates wrong")
	}
	if c := r.Config(); c.RingSize != 256 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestTakeSnapshotKeepsLastGood(t *testing.T) {
	r := New(Config{})
	write := func(payload string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, payload); return err }
	}
	if err := r.TakeSnapshot(10, write("good-10")); err != nil {
		t.Fatal(err)
	}
	// A failing snapshot must not clobber the retained one.
	errBoom := fmt.Errorf("boom")
	if err := r.TakeSnapshot(20, func(w io.Writer) error {
		io.WriteString(w, "partial") //nolint:errcheck
		return errBoom
	}); err == nil {
		t.Fatal("snapshot error swallowed")
	}
	b, step := r.snapshotBytes()
	if step != 10 || string(b) != "good-10" {
		t.Fatalf("retained snapshot = step %d %q, want step 10 \"good-10\"", step, b)
	}
	if err := r.TakeSnapshot(30, write("good-30")); err != nil {
		t.Fatal(err)
	}
	if b, step := r.snapshotBytes(); step != 30 || string(b) != "good-30" {
		t.Fatalf("snapshot not advanced: step %d %q", step, b)
	}
	if r.SnapshotStep() != 30 {
		t.Fatalf("SnapshotStep = %d", r.SnapshotStep())
	}
}

// Each snapshot buffer has room for the previous snapshot before the
// writer runs, so an in-run snapshot of unchanged size never grows its
// buffer by doubling.
func TestSnapshotBufferGrowsToPreviousLength(t *testing.T) {
	r := New(Config{})
	const size = 1 << 16
	chunk := make([]byte, 1024)
	for i := 0; i < 3; i++ {
		if err := r.TakeSnapshot(i, func(w io.Writer) error {
			if room := w.(*bytes.Buffer).Available(); i > 0 && room < size {
				t.Errorf("snapshot %d: %d bytes of room before writing, want ≥ %d", i, room, size)
			}
			for n := 0; n < size; n += len(chunk) {
				w.Write(chunk) //nolint:errcheck // bytes.Buffer
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentWritersAndReader is the race-detector test: 8 writer
// goroutines record timings while a reader snapshots the ring and a
// second reader takes checkpoints.
func TestConcurrentWritersAndReader(t *testing.T) {
	r := New(Config{RingSize: 32})
	const writers = 8
	const steps = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for step := 1; step <= steps; step++ {
				r.Emit(core.Event{Kind: core.KernelDone, Step: step, Kernel: core.KComputeCollision, D: time.Microsecond})
				r.Emit(core.Event{Kind: core.PhaseDone, Step: step, Tid: tid, Phase: core.PhaseCollideStream, D: time.Microsecond})
				if tid == 0 {
					r.RecordStep(step, time.Microsecond, 1, 0)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			recs := r.Records()
			if len(recs) > 32 {
				t.Errorf("ring grew past its size: %d records", len(recs))
				return
			}
			// Step order is only deterministic once writers quiesce (the
			// deterministic tests assert it); here the reader just must
			// not race, crash, or observe aliased slices.
			r.LastStep()
			r.TakeSnapshot(i, func(w io.Writer) error { //nolint:errcheck
				_, err := io.WriteString(w, "snap")
				return err
			})
		}
	}()
	wg.Wait()
	<-done
	if r.LastStep() != steps {
		t.Fatalf("LastStep = %d, want %d", r.LastStep(), steps)
	}
}

// TestSteadyStateRecordingAllocatesNothing pins the bounded-overhead
// claim: once the ring's slots and their tile buffers are warm, a full
// step of recording — nine kernel callbacks, five phase callbacks, the
// step aggregate, and a digest copy — performs zero allocations.
func TestSteadyStateRecordingAllocatesNothing(t *testing.T) {
	r := New(Config{RingSize: 16, DigestEvery: 1})
	g := grid.New(16, 16, 16)
	d, err := grid.NewDigestGrid(16, 16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every slot (and its tile buffer) past one full ring cycle.
	for step := 1; step <= 40; step++ {
		recordOneStep(r, g, d, step)
	}
	step := 41
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recordOneStep(r, g, d, step)
			step++
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("steady-state recording allocates %d objects per step, want 0", allocs)
	}
}

func recordOneStep(r *Recorder, g *grid.Grid, d *grid.DigestGrid, step int) {
	for k := core.Kernel(1); k <= core.NumKernels; k++ {
		r.Emit(core.Event{Kind: core.KernelDone, Step: step, Kernel: k, D: time.Microsecond})
	}
	for p := core.Phase(1); p <= core.NumPhases; p++ {
		r.Emit(core.Event{Kind: core.PhaseDone, Step: step, Phase: p, D: time.Microsecond})
	}
	if r.WantDigest(step) {
		g.Digest(d) //nolint:errcheck // shapes fixed in test
		r.RecordDigest(step, d)
	}
	r.RecordStep(step, 10*time.Microsecond, 1.0, 0.1)
}

func BenchmarkRecordStep(b *testing.B) {
	r := New(Config{RingSize: 256, DigestEvery: 1})
	g := grid.New(32, 32, 32)
	d, err := grid.NewDigestGrid(32, 32, 32, 4)
	if err != nil {
		b.Fatal(err)
	}
	for step := 1; step <= 512; step++ {
		recordOneStep(r, g, d, step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recordOneStep(r, g, d, 513+i)
	}
}
