// Package observerbad is lbmib-lint's golden-bad corpus for
// observercheck: the nil-defaulting event contract core.Probe invoked
// without a dominating nil guard — the panic that only fires on the
// uninstrumented configuration.
package observerbad

import "lbmib/internal/core"

// S mirrors an engine: one optional probe, nil by default.
type S struct {
	Obs core.Probe
}

// StatsObserver only looks like a hook: the check goes by type, not by
// name, so the call on it is no finding.
type StatsObserver interface{ Record(v int) }

func byTypeNotName(o StatsObserver, v int) { o.Record(v) }

// unguarded invokes the observer with no guard at all.
func unguarded(s *S, v int) {
	s.Obs.Emit(core.Event{Step: v}) //want:observercheck
}

// guardedThen is clean: the call sits in the then-branch of a != nil.
func guardedThen(s *S, v int) {
	if s.Obs != nil {
		s.Obs.Emit(core.Event{Step: v})
	}
}

// guardedEarly is clean: a terminating == nil guard dominates the call.
func guardedEarly(s *S, v int) {
	if s.Obs == nil {
		return
	}
	s.Obs.Emit(core.Event{Step: v})
}

// aliasGuarded is clean: obs was assigned once from s.Obs, so a guard on
// either spelling covers both.
func aliasGuarded(s *S, v int) {
	obs := s.Obs
	if s.Obs != nil {
		obs.Emit(core.Event{Step: v})
	}
}

// closureStable is clean: a single-assignment local guarded before the
// closure cannot change inside it.
func closureStable(s *S, run func(func())) {
	if s.Obs == nil {
		return
	}
	obs := s.Obs
	run(func() {
		obs.Emit(core.Event{Step: 1})
	})
}

// closureField re-reads the field inside the closure: the outer guard
// does not travel across the boundary for a mutable field.
func closureField(s *S, run func(func())) {
	if s.Obs == nil {
		return
	}
	run(func() {
		s.Obs.Emit(core.Event{Step: 1}) //want:observercheck
	})
}

// guardedDisjunct is clean: the early exit is taken whenever the probe
// is nil, whatever the other disjunct says.
func guardedDisjunct(s *S, skip bool) {
	obs := s.Obs
	if obs == nil || skip {
		return
	}
	obs.Emit(core.Event{Step: 1})
}
