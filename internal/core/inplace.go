package core

import (
	"fmt"

	"lbmib/internal/grid"
	"lbmib/internal/par"
)

// InPlace is the state of an engine that streams one distribution array
// in place (AABlock): the problem, the grid and its stream geometry, the
// array's phase bit, the records' Support and the worker team. The
// OpenMP-style engine (internal/omp) and the cube engine (internal/cubesolver) embed it; they differ only in
// their schedules — which worker runs which body over which blocks — and
// in the block extent of their grids, x-planes or k³ cubes. What reads
// the state between steps is written once, here: Live, Canonical and
// Refresh, the team Digest, and Loaded.
type InPlace struct {
	Problem
	Fluid *grid.Grid
	// Stream is the grid's stream geometry under the problem's boundary
	// conditions.
	Stream *Streamer
	// Support says which blocks' records are fresh and which the step's
	// stencils reach.
	Support *Support
	// Team is the worker team the schedule runs on.
	Team *par.Team

	step int
	// swapped is the phase of the array between steps: false means
	// natural. Every step flips it (FlipPhase).
	swapped bool
	// canonicalizePiece bound once, so Digest's team run allocates
	// nothing.
	canonRun func(p int)
}

// NewInPlace builds the state of an in-place engine over fluid, at rest,
// with a team of threads workers. Kernel 4 accumulates on top of the
// force reset the previous step's moments pass leaves behind, so the
// records' force is seeded with the body force here (SeedForce).
func NewInPlace(cfg Config, fluid *grid.Grid, threads int) (*InPlace, error) {
	p, err := NewProblem(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &InPlace{
		Problem: p,
		Fluid:   fluid,
		Stream:  NewStreamer(fluid, p.StreamBC(cfg.NX, cfg.NY, cfg.NZ)),
		Support: NewSupport(fluid.NumBlocks()),
		Team:    par.NewTeam(threads),
	}
	s.canonRun = s.canonicalizePiece
	SeedForce(fluid.Macros(), p.BodyForce)
	return s, nil
}

// Close releases the worker team.
func (s *InPlace) Close() { s.Team.Close() }

// Threads returns the team width.
func (s *InPlace) Threads() int { return s.Team.Size() }

// StepCount returns the number of completed time steps.
func (s *InPlace) StepCount() int { return s.step }

// AdvanceStep records that n time steps completed.
func (s *InPlace) AdvanceStep(n int) { s.step += n }

// Swapped returns the array's phase: true if the last step left it
// swapped.
func (s *InPlace) Swapped() bool { return s.swapped }

// FlipPhase flips the phase bit and returns the phase it had. The
// caller must then run AABlock over every block from that phase before
// anything reads the array.
func (s *InPlace) FlipPhase() (swapped bool) {
	swapped = s.swapped
	s.swapped = !swapped
	return swapped
}

// Refresh brings every stale record up to date (RefreshAll). Call it
// between steps only.
func (s *InPlace) Refresh() { RefreshAll(s.Stream, s.Fluid.Dist(), s.Support, s.swapped) }

// Live returns the grid with its distributions in the natural phase and
// every record fresh: Canonical, then Refresh, which then reads each
// node's own slots. Call it between steps only.
func (s *InPlace) Live() *grid.Grid {
	s.Canonical()
	s.Refresh()
	return s.Fluid
}

// Canonical returns the grid with its distributions in the natural
// phase, canonicalizing the array in place if the last step left it
// swapped, and its records as the last step left them, stale ones
// included: what a reader of the distributions alone needs. Call it
// between steps only.
func (s *InPlace) Canonical() *grid.Grid {
	if s.swapped {
		Canonicalize(s.Stream, s.Fluid.Dist())
		s.swapped = false
	}
	return s.Fluid
}

// Digest fills d from the grid on the worker team, leaving the grid as
// Live leaves it, bitwise as the grid's own one-goroutine Digest of
// Live's grid. If the last step left the array swapped, the team first
// canonicalizes it, one contiguous range of blocks per worker
// (CanonicalizeBlocks), and joins; then each worker digests one
// contiguous range of tiles or tile rows, refreshing each stale block's
// records in the same loop (grid.DigestGrid.Begin). Every step after a
// digest therefore starts from the natural phase. The team runs bodies
// bound once, so a digest allocates nothing. Call it between steps only.
func (s *InPlace) Digest(d *grid.DigestGrid) error {
	fresh, _ := s.Support.Sets(0)
	part, err := d.Begin(s.Fluid, s.Team.Size(), fresh)
	if err != nil {
		return err
	}
	if s.swapped {
		s.Team.Run(s.canonRun)
		s.swapped = false
	}
	s.Team.Run(part)
	s.Support.Refreshed()
	d.End()
	return nil
}

// canonicalizePiece canonicalizes worker p's static share of the blocks.
func (s *InPlace) canonicalizePiece(p int) {
	lo, hi := par.StaticRange(s.Fluid.NumBlocks(), s.Team.Size(), p)
	CanonicalizeBlocks(s.Stream, s.Fluid.Dist(), lo, hi)
}

// Loaded re-establishes the between-steps invariants after the grid's
// distributions, ρ, u and force were overwritten from outside (a
// restored checkpoint), with the array in the natural phase: every
// record's force is the body force, as spreading needs — the loaded
// force is another engine's end-of-step state, dead for every engine —
// and every record is fresh.
func (s *InPlace) Loaded() {
	SeedForce(s.Fluid.Macros(), s.BodyForce)
	s.Support.Loaded()
}
