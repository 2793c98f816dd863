package flightrec

import (
	"fmt"
	"math"
	"sort"
)

// Anomaly kinds a localization can report, strongest evidence first:
// a non-finite value is certain, a speed over the lattice limit nearly
// so, and a per-cube mass outlier is statistical (healthy cubes trade
// mass with neighbors every step, so mass anomalies are judged against
// the step's own distribution of per-cube changes).
const (
	KindNonFinite = "non_finite"
	KindVelocity  = "velocity"
	KindMass      = "mass_drift"
)

// Localization names where in space and time the recorded digests first
// broke an invariant: the paper's per-cube decomposition turned into a
// forensic coordinate system.
type Localization struct {
	Found bool `json:"found"`
	// Step is the first recorded step showing the anomaly; PrevStep the
	// last digested step before it (the failure onset lies between).
	Step     int    `json:"step,omitempty"`
	PrevStep int    `json:"prevStep,omitempty"`
	Kind     string `json:"kind,omitempty"`
	// Cube is the flat index of the first/worst offending tile;
	// CubeCoord its (cx,cy,cz); CellOrigin the fluid coordinate of its
	// lowest corner; TileSize its edge.
	Cube       int    `json:"cube,omitempty"`
	CubeCoord  [3]int `json:"cubeCoord"`
	CellOrigin [3]int `json:"cellOrigin"`
	TileSize   int    `json:"tileSize,omitempty"`
	// Phase names the solver phase that computes the violated field,
	// and Kernels the Algorithm-1 kernels executing in that phase.
	Phase   string   `json:"phase,omitempty"`
	Kernels []string `json:"kernels,omitempty"`
	Detail  string   `json:"detail,omitempty"`
}

// phaseForKind maps anomaly evidence to the phase that produces the
// violated field, and that phase to its Algorithm-1 kernels.
func phaseForKind(kind string) (phase string, kernels []string) {
	switch kind {
	case KindVelocity:
		return "update_velocity", []string{"update_fluid_velocity"}
	default: // non-finite distributions and mass anomalies
		return "collide_stream", []string{"compute_fluid_collision", "stream_fluid_velocity_distribution"}
	}
}

// massOutlierFactor is how far above the step's median per-cube mass
// change a cube must sit to be called anomalous: healthy cubes exchange
// mass with neighbors symmetrically, so the median change is the
// step's "normal" flux scale.
const massOutlierFactor = 8.0

// massAbsFloor ignores sub-rounding mass changes entirely.
const massAbsFloor = 1e-9

// Localize bisects the ring's digested records for the earliest
// invariant violation. maxVel is the admissible speed (the watchdog's
// limit); tile shape comes from the recorder.
func Localize(records []Record, tileK, tx, ty, tz int, maxVel float64) Localization {
	digested := make([]Record, 0, len(records))
	for _, r := range records {
		if r.HasDigest && len(r.Digests) == tx*ty*tz {
			digested = append(digested, r)
		}
	}
	if len(digested) == 0 || tileK < 1 {
		return Localization{}
	}
	loc := func(step, prev, tile int, kind, detail string) Localization {
		cx := tile / (ty * tz)
		cy := (tile / tz) % ty
		cz := tile % tz
		phase, kernels := phaseForKind(kind)
		return Localization{
			Found: true, Step: step, PrevStep: prev, Kind: kind,
			Cube: tile, CubeCoord: [3]int{cx, cy, cz},
			CellOrigin: [3]int{cx * tileK, cy * tileK, cz * tileK},
			TileSize:   tileK, Phase: phase, Kernels: kernels, Detail: detail,
		}
	}

	maxV2 := maxVel * maxVel
	prevStep := -1
	var prevTiles []float64
	scratch := make([]float64, 0, tx*ty*tz)
	for _, r := range digested {
		// Non-finite beats everything: the first contaminated tile is
		// the failure origin.
		worst, worstN := -1, int32(0)
		for t := range r.Digests {
			if n := r.Digests[t].NonFinite; n > worstN {
				worst, worstN = t, n
			}
		}
		if worst >= 0 {
			return loc(r.Step, prevStep, worst,
				KindNonFinite, fmt.Sprintf("%d non-finite nodes in cube", worstN))
		}
		// Speed limit, per tile.
		if maxVel > 0 {
			worstT, worstV2 := -1, maxV2
			for t := range r.Digests {
				if v2 := r.Digests[t].MaxVel2; v2 > worstV2 {
					worstT, worstV2 = t, v2
				}
			}
			if worstT >= 0 {
				return loc(r.Step, prevStep, worstT, KindVelocity,
					fmt.Sprintf("cube max speed %.4g exceeds limit %.4g", math.Sqrt(worstV2), maxVel))
			}
		}
		// Mass outlier: one cube's |Δmass| far above the step's median.
		if prevTiles != nil {
			scratch = scratch[:0]
			for t := range r.Digests {
				scratch = append(scratch, math.Abs(r.Digests[t].Mass-prevTiles[t]))
			}
			deltas := append([]float64(nil), scratch...)
			sort.Float64s(deltas)
			median := deltas[len(deltas)/2]
			floor := median * massOutlierFactor
			if floor < massAbsFloor {
				floor = massAbsFloor
			}
			worstT, worstD := -1, floor
			for t, dv := range scratch {
				if dv > worstD {
					worstT, worstD = t, dv
				}
			}
			if worstT >= 0 {
				return loc(r.Step, prevStep, worstT, KindMass,
					fmt.Sprintf("cube mass changed %.4g between steps %d and %d (median cube change %.4g)",
						worstD, prevStep, r.Step, median))
			}
		}
		prevStep = r.Step
		if prevTiles == nil {
			prevTiles = make([]float64, len(r.Digests))
		}
		for t := range r.Digests {
			prevTiles[t] = r.Digests[t].Mass
		}
	}
	return Localization{}
}
