package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test_seconds", "", []float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("empty histogram p50 = %g, want NaN", h.Quantile(0.5))
	}
	// 100 observations uniform in (0,1]: every bucket boundary estimate
	// is exact under linear interpolation within the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 0.5}, {0.95, 0.95}, {0.99, 0.99}, {1.0, 1.0},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Observations beyond the last finite bound saturate there.
	h2 := r.Histogram("q_test_tail_seconds", "", []float64{1, 2})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflow-bucket p99 = %g, want saturation at 2", got)
	}
}

// TestQuantileExposition is the exposition-format regression test: the
// Prometheus text and JSON renderings must carry the p50/p95/p99
// estimates for non-empty histograms and omit them for empty ones.
func TestQuantileExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", ExpBuckets(0.001, 2, 10), L("engine", "cube"))
	for i := 0; i < 100; i++ {
		h.Observe(0.004)
	}
	r.Histogram("empty_seconds", "never observed", ExpBuckets(0.001, 2, 4))

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`lat_seconds{engine="cube",quantile="0.5"} `,
		`lat_seconds{engine="cube",quantile="0.95"} `,
		`lat_seconds{engine="cube",quantile="0.99"} `,
		`lat_seconds_count{engine="cube"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, `empty_seconds{quantile=`) {
		t.Errorf("empty histogram must not emit quantile lines:\n%s", text)
	}
	// Quantile lines must come after the histogram's _count line (they
	// annotate the same series block).
	if c, q := strings.Index(text, "lat_seconds_count"), strings.Index(text, `quantile="0.5"`); q < c {
		t.Errorf("quantile line before _count line:\n%s", text)
	}

	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var series []Series
	if err := json.Unmarshal(buf.Bytes(), &series); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range series {
		switch s.Name {
		case "lat_seconds":
			found = true
			for _, k := range []string{"p50", "p95", "p99"} {
				v, ok := s.Quantiles[k]
				if !ok {
					t.Errorf("JSON snapshot missing quantile %s", k)
					continue
				}
				// All observations are 0.004, inside the (0.002, 0.004]
				// bucket: every quantile estimate must land there.
				if v <= 0.002 || v > 0.004 {
					t.Errorf("quantile %s = %g, want in (0.002, 0.004]", k, v)
				}
			}
		case "empty_seconds":
			if len(s.Quantiles) != 0 {
				t.Errorf("empty histogram carries quantiles %v", s.Quantiles)
			}
		}
	}
	if !found {
		t.Fatal("lat_seconds series missing from JSON snapshot")
	}
}
