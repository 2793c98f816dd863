package omp

import (
	"time"

	"lbmib/internal/core"
)

// RegionObserver receives, after each parallel region completes, the
// per-thread busy time inside that region: busy[tid] is how long thread
// tid spent executing loop chunks (the rest of the region's wall time
// was spent waiting at the region's implicit barrier). This is the
// OmpP-style measurement behind the paper's Table II load-imbalance
// column — max(busy)/mean(busy) per region.
//
// RegionDone is called from the coordinating goroutine once per region,
// after all workers have joined; the busy slice is reused and must not
// be retained.
type RegionObserver interface {
	RegionDone(step int, k core.Kernel, busy []time.Duration)
}
