// Package lockbad is the golden-bad corpus for lockcheck: each
// seeded defect carries a want marker on the line where the diagnostic
// must be reported. The file must type-check — the defects are
// semantic, not syntactic.
package lockbad

import "sync"

type S struct {
	mu    sync.Mutex
	other sync.Mutex
	rw    sync.RWMutex
}

// returnWhileHeld leaks the lock on the early-return path.
func returnWhileHeld(s *S, cond bool) {
	s.mu.Lock()
	if cond {
		return //want:lockcheck
	}
	s.mu.Unlock()
}

// branchImbalance releases on only one arm of the if.
func branchImbalance(s *S, cond bool) {
	s.mu.Lock()
	if cond { //want:lockcheck
		s.mu.Unlock()
	}
}

// selfDeadlock re-acquires a held sync.Mutex on the same path.
func selfDeadlock(s *S) {
	s.mu.Lock()
	s.mu.Lock() //want:lockcheck
	s.mu.Unlock()
}

// tryLeak owns the lock on the TryLock-success path and never releases.
func tryLeak(s *S) {
	if s.mu.TryLock() { //want:lockcheck
		_ = s
	}
}

// heldAtEnd falls off the end of the function still holding rw.
func heldAtEnd(s *S) {
	s.rw.RLock() //want:lockcheck
}

// lockAB and lockBA nest acquisitions in opposite orders: the package's
// lock graph has a cycle, reported once at the first edge.
func lockAB(s *S) {
	s.mu.Lock()
	s.other.Lock() //want:lockcheck
	s.other.Unlock()
	s.mu.Unlock()
}

func lockBA(s *S) {
	s.other.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	s.other.Unlock()
}

// deferredOK is clean: a deferred unlock covers every path.
func deferredOK(s *S, cond bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cond {
		return
	}
}
