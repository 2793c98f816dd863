package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steps_total", "steps")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("steps_total", "steps") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("mlups", "speed")
	g.Set(12.5)
	g.Add(-2.5)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %g, want 10", got)
	}
}

func TestCounterRejectsDecrement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	new(Counter).Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-3, 2, 4)
	want := []float64{1e-3, 2e-3, 4e-3, 8e-3}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", ExpBuckets(1, 2, 3)) // 1, 2, 4
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 105 {
		t.Fatalf("sum = %g, want 105", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series, want 1", len(snap))
	}
	s := snap[0]
	// Cumulative counts: ≤1 → 1, ≤2 → 2, ≤4 → 3, ≤+Inf → 4.
	wantCum := []uint64{1, 2, 3, 4}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if s.Buckets[i].CumulativeCount != want {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, s.Buckets[i].CumulativeCount, want)
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Fatal("last bucket is not +Inf")
	}
}

func TestLabelsSeparateSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("kernel_calls", "", L("kernel", "collision"))
	b := r.Counter("kernel_calls", "", L("kernel", "stream"))
	if a == b {
		t.Fatal("different labels returned the same series")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("label series share state")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("lbmib_steps_total", "Completed time steps.").Add(42)
	r.Gauge("lbmib_mlups", "Updates per second.", L("engine", "cube")).Set(3.5)
	h := r.Histogram("lbmib_kernel_seconds", "Kernel wall time.", ExpBuckets(1e-3, 10, 2), L("kernel", "collision"))
	h.Observe(5e-3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lbmib_steps_total counter",
		"lbmib_steps_total 42",
		"# TYPE lbmib_mlups gauge",
		`lbmib_mlups{engine="cube"} 3.5`,
		"# TYPE lbmib_kernel_seconds histogram",
		`lbmib_kernel_seconds_bucket{kernel="collision",le="0.001"} 0`,
		`lbmib_kernel_seconds_bucket{kernel="collision",le="0.01"} 1`,
		`lbmib_kernel_seconds_bucket{kernel="collision",le="+Inf"} 1`,
		`lbmib_kernel_seconds_sum{kernel="collision"} 0.005`,
		`lbmib_kernel_seconds_count{kernel="collision"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "help").Add(7)
	r.Gauge("g", "").Set(1.25)
	// The histogram's +Inf overflow bucket must survive the round trip
	// (encoding/json cannot represent the float directly).
	r.Histogram("h", "", ExpBuckets(1, 10, 3)).Observe(5000)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Series
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(got) != 3 || got[0].Name != "c" || got[0].Value != 7 || got[1].Value != 1.25 {
		t.Fatalf("unexpected decoded snapshot: %+v", got)
	}
	bks := got[2].Buckets
	if len(bks) != 4 || !math.IsInf(bks[3].UpperBound, 1) || bks[3].CumulativeCount != 1 {
		t.Fatalf("histogram buckets did not round-trip: %+v", bks)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c", "").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h", "", ExpBuckets(1, 2, 4)).Observe(float64(i % 7))
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("h", "", ExpBuckets(1, 2, 4)).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

// A series is never visible without its histogram: one goroutine
// registers 200 new histogram series while another snapshots the
// registry, and every histogram a snapshot lists carries its buckets.
// Under the race detector a histogram published after its series fails
// here; the rounds give the window between the two many chances.
func TestHistogramRegistrationDuringSnapshot(t *testing.T) {
	for round := 0; round < 50; round++ {
		r := NewRegistry()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				r.Histogram("h", "", ExpBuckets(1, 2, 4), Label{"i", strconv.Itoa(i)}).Observe(1)
			}
		}()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			for _, s := range r.Snapshot() {
				if len(s.Buckets) != 5 {
					t.Fatalf("round %d: series %v lists %d buckets, want 5", round, s.Labels, len(s.Buckets))
				}
			}
		}
		if n := len(r.Snapshot()); n != 200 {
			t.Fatalf("round %d: %d series, want 200", round, n)
		}
	}
}
