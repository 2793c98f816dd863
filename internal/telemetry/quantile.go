package telemetry

import "math"

// snapshotQuantiles are the quantiles attached to every histogram
// snapshot and exposition. The keys double as the JSON field names.
var snapshotQuantiles = []struct {
	Name string
	Q    float64
}{
	{"p50", 0.50},
	{"p95", 0.95},
	{"p99", 0.99},
}

// bucketQuantile estimates the q-quantile from cumulative buckets the
// way Prometheus' histogram_quantile does: find the bucket the target
// rank falls in and interpolate linearly inside it. The lower edge of
// the first bucket is taken as 0 (all our histograms observe durations
// and other non-negative quantities). If the rank lands in the +Inf
// overflow bucket the highest finite bound is returned — the estimate
// saturates rather than inventing a value. NaN for an empty histogram.
func bucketQuantile(q float64, buckets []Bucket) float64 {
	if len(buckets) == 0 {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].CumulativeCount
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, b := range buckets {
		if float64(b.CumulativeCount) < rank {
			continue
		}
		if math.IsInf(b.UpperBound, 1) {
			// Overflow bucket: saturate at the highest finite bound.
			if i == 0 {
				return math.NaN() // single +Inf bucket: no scale information
			}
			return buckets[i-1].UpperBound
		}
		lo, loCount := 0.0, uint64(0)
		if i > 0 {
			lo, loCount = buckets[i-1].UpperBound, buckets[i-1].CumulativeCount
		}
		inBucket := float64(b.CumulativeCount - loCount)
		if inBucket == 0 {
			return b.UpperBound
		}
		return lo + (b.UpperBound-lo)*(rank-float64(loCount))/inBucket
	}
	return buckets[len(buckets)-1].UpperBound
}
