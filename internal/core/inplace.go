package core

import (
	"fmt"

	"lbmib/internal/grid"
	"lbmib/internal/par"
)

// InPlace is the state of an engine that streams one distribution array
// in place (AABlock): the problem, the grid and its stream geometry, the
// array's phase bit, the records' Support and the worker team.
// internal/engine's Solver embeds it under both parallel schedules,
// OpenMP and cube, which differ only in which worker runs which body over
// which blocks, where the team joins, and the block extent of their
// grids, x-planes or k³ cubes. What reads
// the state between steps is written once, here, and runs on the team:
// Live, Canonical and Refresh, the team Digest, and Loaded; and so is
// what lets the next step's sweep digest it instead (Observe).
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
	// canonicalizePiece and refreshPiece bound once, so the team runs
	// of Live, Canonical, Refresh and Digest allocate nothing.
	canonRun, refreshRun func(p int)
	// sink, when non-nil, is the digest the collide sweep of step
	// sinkStep fills (Observe).
	sink     *grid.DigestGrid
	sinkStep int
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
	s.canonRun, s.refreshRun = s.canonicalizePiece, s.refreshPiece
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

// Refresh brings every stale record up to date on the team, one static
// range of blocks per worker (RefreshBlocks). A support with no stale
// record dispatches no region: the facade's point accessors call
// Refresh on every read. Call it between steps only.
func (s *InPlace) Refresh() {
	if s.Support.Dirty() {
		s.Team.Run(s.refreshRun)
		s.Support.Refreshed()
	}
}

// Live returns the grid with its distributions in the natural phase and
// every record fresh: Canonical, then Refresh, which then reads each
// node's own slots. Both run on the team and allocate nothing. Call it
// between steps only.
func (s *InPlace) Live() *grid.Grid {
	s.Canonical()
	s.Refresh()
	return s.Fluid
}

// Canonical returns the grid with its distributions in the natural
// phase, canonicalizing the array in place on the team, one static
// range of blocks per worker (CanonicalizeBlocks), if the last step
// left it swapped, and its records as the last step left them, stale
// ones included: what a reader of the distributions alone needs. Call
// it between steps only.
func (s *InPlace) Canonical() *grid.Grid {
	if s.swapped {
		s.Team.Run(s.canonRun)
		s.swapped = false
	}
	return s.Fluid
}

// Digest fills d from the grid on the worker team, leaving the grid as
// Live leaves it, bitwise as the grid's own one-goroutine Digest of
// Live's grid and as the sweep Observe asks for. If the last step left
// the array swapped, the team first canonicalizes it as Canonical does,
// and joins; then each worker digests one contiguous range of blocks,
// refreshing each stale block's records in the same loop
// (grid.DigestGrid.Begin). It is the digest of the readers between
// steps; a run that samples every step takes the sample in the next
// step's sweep instead. The team runs bodies bound once, so a digest
// allocates nothing. Call it between steps only.
func (s *InPlace) Digest(d *grid.DigestGrid) error {
	fresh, _ := s.Support.Sets(0)
	part, err := d.Begin(s.Fluid, s.Team.Size(), fresh)
	if err != nil {
		return err
	}
	s.Canonical()
	s.Team.Run(part)
	s.Support.Refreshed()
	d.End()
	return nil
}

// Observe makes the next step's collide sweep digest the state it is
// about to overwrite — the state StepCount names now — into d: every
// block's owner adds its nodes' density and velocity to the block's
// slots as it collides them (AABlock), and the step reduces the slots
// once the team has joined (EndSweep). So once the step returns, d is
// the digest Digest would have given between the steps, bit for bit,
// without a pass of its own, and the array stays in the phase the step
// leaves. d must fit the grid (grid.DigestGrid.Fits). Call it between
// steps only.
func (s *InPlace) Observe(d *grid.DigestGrid) error {
	if err := d.Fits(s.Fluid); err != nil {
		return err
	}
	s.sink, s.sinkStep = d, s.step
	return nil
}

// Sink returns the digest the collide sweep of the k-th step of the
// current run fills, or nil: Observe's, on the step it named.
func (s *InPlace) Sink(k int) *grid.DigestGrid {
	if s.sink != nil && s.step+k == s.sinkStep {
		return s.sink
	}
	return nil
}

// EndSweep reduces the digest Observe asked for once its step has run,
// after the team joined. The schedules call it at the end of every run.
func (s *InPlace) EndSweep() {
	if s.sink != nil && s.step > s.sinkStep {
		s.sink.Reduce()
		s.sink = nil
	}
}

// canonicalizePiece canonicalizes worker p's static share of the blocks.
func (s *InPlace) canonicalizePiece(p int) {
	lo, hi := par.StaticRange(s.Fluid.NumBlocks(), s.Team.Size(), p)
	CanonicalizeBlocks(s.Stream, s.Fluid.Dist(), lo, hi)
}

// refreshPiece refreshes the stale records of worker p's static share of
// the blocks.
func (s *InPlace) refreshPiece(p int) {
	lo, hi := par.StaticRange(s.Fluid.NumBlocks(), s.Team.Size(), p)
	RefreshBlocks(s.Stream, s.Fluid.Dist(), s.Support, s.swapped, lo, hi)
}

// Loaded re-establishes the between-steps invariants after the grid's
// distributions, ρ and u (and, from a version-1 checkpoint, the force)
// were overwritten from outside (a restored checkpoint), with the array
// in the natural phase: every record's force is the body force, as
// spreading needs (a version-1 stream's force is dead end-of-step
// state), and every record is fresh.
func (s *InPlace) Loaded() {
	SeedForce(s.Fluid.Macros(), s.BodyForce)
	s.Support.Loaded()
}
