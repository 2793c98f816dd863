package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// StepRecord is one line of the per-step JSONL run log: the compact
// trajectory a long-running simulation leaves behind for offline
// analysis (each line is independently parseable, so a truncated log
// from an aborted run is still usable).
type StepRecord struct {
	Step int `json:"step"`
	// Mass is the total distribution mass (a conserved invariant).
	Mass float64 `json:"mass"`
	// MaxVel is the largest fluid speed (lattice units).
	MaxVel float64 `json:"maxVel"`
	// KernelMillis is the wall-clock time of the step's solver work.
	KernelMillis float64 `json:"kernelMillis"`
	// MLUPS is million lattice-node updates per second for this step.
	MLUPS float64 `json:"mlups"`
	// Imbalance is the load-imbalance ratio (max/mean per-thread phase
	// time, the paper's Table II metric) accumulated so far. Zero-valued
	// fields below are omitted: they only appear when attribution
	// (lbmib.Config.CritPath) is enabled.
	Imbalance float64 `json:"imbalance,omitempty"`
	// BarrierWaitShare is the fraction of total thread-time spent waiting
	// at barriers so far.
	BarrierWaitShare float64 `json:"barrierWaitShare,omitempty"`
	// CritPath names the step's critical path when the critical-path
	// profiler is enabled (absent otherwise).
	CritPath *CritPathStep `json:"critpath,omitempty"`
	// Unhealthy carries the watchdog's latched violation on the step it
	// fires (absent on healthy steps).
	Unhealthy *HealthRecord `json:"unhealthy,omitempty"`
}

// CritPathStep is the steplog form of one step's critical path: the
// phase that dominated the step's critical time, the thread that was
// slowest in it (the barrier's last arriver for that phase), and the
// summed per-phase critical seconds of the whole step.
type CritPathStep struct {
	Phase   string  `json:"phase"`
	Tid     int     `json:"tid"`
	Seconds float64 `json:"seconds"`
}

// StepLogger writes StepRecords as JSON Lines. Safe for concurrent use.
type StepLogger struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewStepLogger writes records to w, one JSON object per line.
func NewStepLogger(w io.Writer) *StepLogger {
	return &StepLogger{enc: json.NewEncoder(w)}
}

// Log appends one record.
func (l *StepLogger) Log(rec StepRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enc.Encode(rec)
}
