package lbmib

// sampler decides everything about the per-step sample, the one digest
// of a step's state that the watchdog, the step log and the flight
// recorder's ring read (DESIGN.md §12, "Samples"): which steps are
// sampled, whether a sample is completed by the next step's collide
// sweep or at once, whether the ring keeps it, whether the run may step
// on, and whether a snapshot is due. It holds no engine, no sink and no
// clock, and does no I/O: the facade reports what happened — a step
// done (stepDone), the pending sample completed by a step's sweep
// (swept) or by a reader between steps (flushed; Close is one, so nothing
// is owed once it has run), a digest that failed (digestFailed), a
// flagged sample (flag) — and carries out the answers.
type sampler struct {
	// every is whether every step is sampled (a watchdog or a step log
	// reads it); sweep whether the engine completes a sample in the next
	// step's collide sweep (observe) rather than at the end of the step;
	// ringEvery and snapEvery are the recorder's digest and snapshot
	// cadences, 0 without a recorder.
	every, sweep         bool
	ringEvery, snapEvery int

	// pending is whether the last step's sample is wanted and not yet
	// completed, and last that step with what the step log records of it
	// besides the sample. flagged is whether the watchdog has flagged a
	// sample, after which nothing is sampled and the run does not step.
	pending, flagged bool
	last             stepTiming
}

// on reports whether step is on a cadence of every steps (never if
// every is 0).
func on(step, every int) bool { return every > 0 && step%every == 0 }

// stepDone records that step p.step has run. Its sample is wanted unless
// the run is flagged: every step's with a watchdog or a step log, the
// ring's cadence with the recorder alone.
func (m *sampler) stepDone(p stepTiming) {
	m.last = p
	m.pending = !m.flagged && (m.every || on(p.step, m.ringEvery))
}

// observe reports whether the next step must arm its collide sweep: the
// last step's sample is pending and the engine samples in the sweep.
func (m *sampler) observe() bool { return m.pending && m.sweep }

// swept records that the step just run completed the pending sample in
// its sweep, and returns the step that sample describes; ok is false if
// the step armed no sweep.
func (m *sampler) swept() (p stepTiming, ok bool) {
	if !m.observe() {
		return stepTiming{}, false
	}
	m.pending = false
	return m.last, true
}

// due reports whether the pending sample must be completed now, after
// its step: on an engine without a sweep, and on a snapshot step, whose
// snapshot is kept only once its state has passed the watchdog.
func (m *sampler) due() bool { return m.pending && (!m.sweep || on(m.last.step, m.snapEvery)) }

// owed reports whether a reader between steps must complete the pending
// sample with the explicit digest before it reads.
func (m *sampler) owed() bool { return m.pending }

// flushed records that a reader completed the pending sample, and
// returns the step it describes.
func (m *sampler) flushed() stepTiming {
	m.pending = false
	return m.last
}

// digestFailed drops the pending sample: a failed digest must not kill
// the run.
func (m *sampler) digestFailed() { m.pending = false }

// flag records that the watchdog flagged the sample being delivered.
func (m *sampler) flag() { m.flagged = true }

// mayStep reports whether the run may step: no sample has been flagged.
func (m *sampler) mayStep() bool { return !m.flagged }

// ringKeeps reports whether the ring keeps the delivered sample of step:
// on its cadence, and the flagged sample on any step, so that a bundle's
// localization sees the digest the watchdog flagged.
func (m *sampler) ringKeeps(step int) bool {
	return m.ringEvery > 0 && (m.flagged || on(step, m.ringEvery))
}

// snapshot reports whether the step just run is snapshotted: it is on
// the snapshot cadence and the run is not flagged. Ask it once due's
// sample has been completed.
func (m *sampler) snapshot() bool { return !m.flagged && on(m.last.step, m.snapEvery) }
