// Package telemetry is the library's runtime observability layer: where
// internal/perfmon reproduces the paper's *static* gprof/OmpP reports,
// this package lets a long run be watched live and explained after the
// fact. It provides four cooperating pieces:
//
//   - Registry — a dependency-free metrics store (counters, gauges,
//     histograms with exponential buckets) with snapshot, Prometheus
//     text, and JSON encodings;
//   - Tracer — turns the engines' kernel and phase events (core.Probe)
//     into Chrome trace-event JSON loadable in chrome://tracing or
//     Perfetto, one track per worker thread; Latencies feeds the same
//     events into the registry's per-kernel or per-phase histograms;
//   - Watchdog — samples per-step physics health (total mass drift, max
//     velocity, NaN/Inf in ρ and u) and flags a run the step it goes
//     unstable;
//   - Exporter — serves /metrics, /healthz and net/http/pprof on an
//     opt-in port.
//
// Everything is safe for concurrent use; a nil *Registry, *Tracer or
// *Watchdog is ignored by the call sites that accept one.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0; counters never decrease).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float value that may go up or down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v atomically.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets plus a running
// sum and count. Buckets are defined by their upper bounds; an implicit
// +Inf bucket catches the tail.
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // ascending upper bounds
	counts []uint64  // len(upper)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// ExpBuckets returns n upper bounds growing geometrically from start by
// factor — the standard latency-histogram shape. It panics on a
// non-positive start, a factor ≤ 1, or n < 1 (programming errors).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: bad exponential buckets (start=%g factor=%g n=%d)", start, factor, n))
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// kind discriminates the metric types in a Registry.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// metric is one registered series.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// key renders the series identity (name plus sorted labels).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds named metric series. Get-or-create accessors make
// instrumentation call sites declarative: the first call registers the
// series, later calls return the same instance. Registering the same
// series under a different kind panics (a programming error, like
// grid.New's dimension check).
type Registry struct {
	mu      sync.Mutex
	ordered []*metric
	index   map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// lookup finds or creates a series, a histogram with its buckets: no
// Snapshot sees a series before its histogram.
func (r *Registry) lookup(name, help string, k kind, labels []Label, buckets []float64) *metric {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", key, m.kind, k))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: ls, kind: k}
	switch k {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		up := append([]float64(nil), buckets...)
		sort.Float64s(up)
		m.hist = &Histogram{upper: up, counts: make([]uint64, len(up)+1)}
	}
	r.index[key] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter series name{labels}, creating it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels, nil).counter
}

// Gauge returns the gauge series name{labels}, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, labels, nil).gauge
}

// Histogram returns the histogram series name{labels} with the given
// bucket upper bounds (see ExpBuckets), creating it on first use. The
// bucket layout of an existing series is kept; callers must use
// consistent buckets for the same name.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, buckets).hist
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	UpperBound      float64 `json:"le"`
	CumulativeCount uint64  `json:"count"`
}

// bucketJSON is Bucket's wire form: the upper bound travels as a string
// because encoding/json cannot represent the +Inf overflow bucket.
type bucketJSON struct {
	UpperBound      string `json:"le"`
	CumulativeCount uint64 `json:"count"`
}

// MarshalJSON renders the bound Prometheus-style ("0.001", "+Inf").
func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{promFloat(b.UpperBound), b.CumulativeCount})
}

// UnmarshalJSON parses the string bound back ("+Inf" included).
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	f, err := strconv.ParseFloat(w.UpperBound, 64)
	if err != nil {
		return fmt.Errorf("telemetry: bucket bound %q: %w", w.UpperBound, err)
	}
	b.UpperBound = f
	b.CumulativeCount = w.CumulativeCount
	return nil
}

// Series is the point-in-time state of one metric series.
type Series struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds the counter count or gauge level.
	Value float64 `json:"value,omitempty"`
	// Count/Sum/Buckets are set for histograms.
	Count   uint64   `json:"observations,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	// Quantiles holds interpolated p50/p95/p99 estimates for non-empty
	// histograms (see bucketQuantile for the estimator).
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// Snapshot returns a consistent-enough copy of every series, in
// registration order. (Individual series are internally consistent;
// series-to-series skew is bounded by whatever the instrumented code
// does between updates.)
func (r *Registry) Snapshot() []Series {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.ordered...)
	r.mu.Unlock()

	out := make([]Series, 0, len(metrics))
	for _, m := range metrics {
		s := Series{Name: m.name, Kind: m.kind.String(), Help: m.help}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.counter.Value())
		case kindGauge:
			s.Value = m.gauge.Value()
		case kindHistogram:
			h := m.hist
			h.mu.Lock()
			s.Count = h.count
			s.Sum = h.sum
			cum := uint64(0)
			for i, ub := range h.upper {
				cum += h.counts[i]
				s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, CumulativeCount: cum})
			}
			cum += h.counts[len(h.upper)]
			s.Buckets = append(s.Buckets, Bucket{UpperBound: math.Inf(1), CumulativeCount: cum})
			h.mu.Unlock()
			if s.Count > 0 {
				s.Quantiles = make(map[string]float64, len(snapshotQuantiles))
				for _, sq := range snapshotQuantiles {
					if v := bucketQuantile(sq.Q, s.Buckets); !math.IsNaN(v) {
						s.Quantiles[sq.Name] = v
					}
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// promLabels renders {k="v",...} for the exposition format, with extra
// appended to the series' own labels.
func promLabels(labels map[string]string, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	for k, v := range labels {
		all = append(all, Label{k, v})
	}
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4), the payload of the Exporter's /metrics.
func (r *Registry) WritePrometheus(w io.Writer) error {
	headerDone := map[string]bool{}
	for _, s := range r.Snapshot() {
		if !headerDone[s.Name] {
			headerDone[s.Name] = true
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
		}
		switch s.Kind {
		case "counter", "gauge":
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, promLabels(s.Labels), promFloat(s.Value)); err != nil {
				return err
			}
		case "histogram":
			for _, b := range s.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					s.Name, promLabels(s.Labels, L("le", promFloat(b.UpperBound))), b.CumulativeCount); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, promLabels(s.Labels), promFloat(s.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, promLabels(s.Labels), s.Count); err != nil {
				return err
			}
			// Summary-style quantile lines so dashboards get latency
			// percentiles without a histogram_quantile() recording rule.
			for _, sq := range snapshotQuantiles {
				v, ok := s.Quantiles[sq.Name]
				if !ok {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s%s %s\n",
					s.Name, promLabels(s.Labels, L("quantile", promFloat(sq.Q))), promFloat(v)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteJSON renders the snapshot as one JSON array, the payload of the
// Exporter's /metrics.json.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
