// Package par is the shared-memory parallel runtime underneath the two
// parallel LBM-IB solvers. It provides the pieces the paper builds its
// implementations from:
//
//   - Team — a persistent group of worker goroutines, the analogue of an
//     OpenMP thread team or a set of pthreads created once in main()
//     (Algorithm 4's create_thread loop);
//   - Barrier — a reusable global barrier (thread_barrier_wait);
//   - a parallel-for helper with OpenMP's static schedule (Algorithm
//     2/3's "#pragma omp parallel for");
//   - Mesh — the P×Q×R logical thread mesh of Section V-A;
//   - the block data-distribution functions cube2thread and fiber2thread.
package par

import (
	"fmt"
	"sync"
)

// Team is a persistent group of n worker goroutines addressed by thread id
// 0..n−1. Work is issued with Run (every worker executes the function, like
// an OpenMP parallel region) or the For* helpers. Workers live until Close.
//
// A Team with n == 1 executes work inline on the calling goroutine, so the
// single-threaded configurations measure no scheduling overhead — matching
// how a 1-thread OpenMP program behaves.
type Team struct {
	n int
	// fn is the current region body. Run stores it before signaling the
	// workers and clears it after the join, so dispatching a region
	// allocates nothing — sending per-dispatch closures over the work
	// channels would heap-allocate one closure per worker per region.
	fn     func(tid int)
	work   []chan struct{}
	wg     sync.WaitGroup // tracks outstanding work items
	closed bool
}

// NewTeam creates a team of n workers. It panics if n < 1 (a programming
// error).
func NewTeam(n int) *Team {
	if n < 1 {
		panic(fmt.Sprintf("par: team size %d", n))
	}
	t := &Team{n: n}
	if n == 1 {
		return t
	}
	t.work = make([]chan struct{}, n)
	for i := 0; i < n; i++ {
		ch := make(chan struct{}, 1)
		t.work[i] = ch
		tid := i
		go func() {
			for range ch {
				t.fn(tid)
				t.wg.Done()
			}
		}()
	}
	return t
}

// Size returns the number of workers.
func (t *Team) Size() int { return t.n }

// Run executes fn(tid) on every worker simultaneously and returns when all
// have finished — the equivalent of an OpenMP parallel region or of joining
// a pthread fan-out.
func (t *Team) Run(fn func(tid int)) {
	if t.n == 1 {
		fn(0)
		return
	}
	t.fn = fn
	t.wg.Add(t.n)
	for i := 0; i < t.n; i++ {
		t.work[i] <- struct{}{}
	}
	t.wg.Wait()
	t.fn = nil
}

// Close shuts the workers down. The team must be idle. Close is idempotent.
func (t *Team) Close() {
	if t.closed || t.n == 1 {
		t.closed = true
		return
	}
	t.closed = true
	for _, ch := range t.work {
		close(ch)
	}
}

// StaticRange computes the half-open index range [lo, hi) that thread tid
// of nthreads owns under an OpenMP static schedule over n iterations:
// contiguous chunks whose sizes differ by at most one. It is exported as a
// pure function so the load-imbalance analysis can reason about schedules
// without running them.
func StaticRange(n, nthreads, tid int) (lo, hi int) {
	base := n / nthreads
	rem := n % nthreads
	if tid < rem {
		lo = tid * (base + 1)
		hi = lo + base + 1
		return
	}
	lo = rem*(base+1) + (tid-rem)*base
	hi = lo + base
	return
}

// ForStatic runs body over [0, n) split into one contiguous chunk per
// worker (OpenMP "schedule(static)"), with an implicit barrier at the end:
// it returns only when every chunk is done.
func (t *Team) ForStatic(n int, body func(tid, lo, hi int)) {
	t.Run(func(tid int) {
		lo, hi := StaticRange(n, t.n, tid)
		if lo < hi {
			body(tid, lo, hi)
		}
	})
}

// Barrier is a reusable counting barrier for a fixed number of
// participants — the thread_barrier_wait() of Algorithm 4. The zero value
// is not usable; create one with NewBarrier.
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase uint64
}

// NewBarrier creates a barrier for n participants (n ≥ 1).
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic(fmt.Sprintf("par: barrier size %d", n))
	}
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n participants have called Wait, then releases
// them together. The barrier is immediately reusable for the next phase.
func (b *Barrier) Wait() {
	if b.n == 1 {
		return
	}
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// WaitRank is Wait with arrival attribution: it additionally returns
// this participant's arrival rank (0 = first to arrive, n−1 = last),
// the crossing number (the barrier's phase counter, monotonically
// increasing and shared with plain Wait calls on the same barrier), and
// whether this participant was the releaser. The last arriver is the
// thread everyone else waited for — critical-path reconstruction hangs
// off exactly this identity.
func (b *Barrier) WaitRank() (rank int, crossing uint64, last bool) {
	b.mu.Lock()
	crossing = b.phase
	if b.n == 1 {
		b.phase++
		b.mu.Unlock()
		return 0, crossing, true
	}
	rank = b.count
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.mu.Unlock()
		b.cond.Broadcast()
		return rank, crossing, true
	}
	for crossing == b.phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
	return rank, crossing, false
}
