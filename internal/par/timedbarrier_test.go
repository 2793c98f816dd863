package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTimedBarrierSkewAttribution pins one artificially slow participant
// and checks the wait-time attribution: the slow thread should record
// (almost) no wait — it arrives last — while every other thread records
// roughly the injected delay. Run under -race with 8 participants this
// also exercises the recorder from all threads concurrently.
func TestTimedBarrierSkewAttribution(t *testing.T) {
	const (
		n     = 8
		slow  = 5
		delay = 20 * time.Millisecond
		steps = 3
	)
	var mu sync.Mutex
	waits := make([]time.Duration, n) // summed over steps
	sites := make(map[int]int)
	tb := TimedBarrier{
		B: NewBarrier(n),
		Arrive: func(_, site, tid, _ int, _ uint64, w time.Duration, _ bool) {
			mu.Lock()
			waits[tid] += w
			sites[site]++
			mu.Unlock()
		},
	}

	team := NewTeam(n)
	defer team.Close()
	team.Run(func(tid int) {
		for s := 0; s < steps; s++ {
			if tid == slow {
				time.Sleep(delay)
			}
			tb.Wait(s, 7, tid)
		}
	})

	if got := sites[7]; got != n*steps {
		t.Fatalf("site 7 recorded %d waits, want %d", got, n*steps)
	}
	// The slow thread must have the minimum accumulated wait, and every
	// fast thread must have waited a substantial fraction of the injected
	// skew (scheduling noise keeps this from being exact).
	min := 0
	for tid := range waits {
		if waits[tid] < waits[min] {
			min = tid
		}
	}
	if min != slow {
		t.Fatalf("min barrier wait at thread %d (waits %v), want slow thread %d", min, waits, slow)
	}
	for tid, w := range waits {
		if tid == slow {
			continue
		}
		if w < steps*delay/2 {
			t.Errorf("fast thread %d waited only %v, want ≥ %v", tid, w, steps*delay/2)
		}
	}
}

// TestTimedBarrierNilRec checks the uninstrumented path is a plain
// barrier: all participants are released together and nothing panics.
func TestTimedBarrierNilRec(t *testing.T) {
	const n = 4
	tb := TimedBarrier{B: NewBarrier(n)}
	var phase int64
	team := NewTeam(n)
	defer team.Close()
	team.Run(func(tid int) {
		for s := 0; s < 100; s++ {
			if got := atomic.LoadInt64(&phase); got != int64(s) {
				t.Errorf("tid %d saw phase %d at step %d", tid, got, s)
			}
			tb.Wait(s, 0, tid)
			if tid == 0 {
				atomic.AddInt64(&phase, 1)
			}
			tb.Wait(s, 1, tid)
		}
	})
}

// TestTimedBarrierLastArriverDeterministic pins the exact interleaving
// of a two-participant crossing: goroutine A is parked inside the
// barrier (observed via the barrier's own count, under its mutex)
// before B arrives, so B is deterministically the last arriver. The
// test asserts B's rank is 1, its recorded wait is exactly zero (not
// clock-read jitter), A's wait is strictly positive, and the crossing
// number is shared by both arrivals and advances between crossings.
func TestTimedBarrierLastArriverDeterministic(t *testing.T) {
	type arrival struct {
		step     int
		rank     int
		crossing uint64
		wait     time.Duration
		last     bool
	}
	b := NewBarrier(2)
	var mu sync.Mutex
	got := make(map[int]arrival) // keyed by tid
	tb := TimedBarrier{
		B: b,
		Arrive: func(step, site, tid, rank int, crossing uint64, w time.Duration, last bool) {
			mu.Lock()
			got[tid] = arrival{step, rank, crossing, w, last}
			mu.Unlock()
		},
	}

	const crossings = 3
	for c := 0; c < crossings; c++ {
		done := make(chan int)
		go func() {
			done <- tb.Wait(c, 0, 0)
		}()
		// Wait until tid 0 is parked inside the barrier: its arrival has
		// been counted but the crossing has not released.
		for {
			b.mu.Lock()
			parked := b.count == 1
			b.mu.Unlock()
			if parked {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		rank1 := tb.Wait(c, 0, 1) // deterministically the last arriver
		rank0 := <-done

		if rank0 != 0 || rank1 != 1 {
			t.Fatalf("crossing %d: ranks (first=%d, last=%d), want (0, 1)", c, rank0, rank1)
		}
		mu.Lock()
		a0, a1 := got[0], got[1]
		mu.Unlock()
		if a0.step != c || a1.step != c {
			t.Fatalf("crossing %d: step tags (%d, %d) not passed through", c, a0.step, a1.step)
		}
		if !a1.last || a0.last {
			t.Fatalf("crossing %d: last flags (tid0=%v, tid1=%v), want (false, true)", c, a0.last, a1.last)
		}
		if a1.wait != 0 {
			t.Fatalf("crossing %d: last arriver recorded wait %v, want exactly 0", c, a1.wait)
		}
		if a0.wait <= 0 {
			t.Fatalf("crossing %d: parked thread recorded wait %v, want > 0", c, a0.wait)
		}
		if a0.crossing != a1.crossing {
			t.Fatalf("crossing %d: crossing ids differ (%d vs %d)", c, a0.crossing, a1.crossing)
		}
		if want := uint64(c); a0.crossing != want {
			t.Fatalf("crossing %d: crossing id %d, want %d", c, a0.crossing, want)
		}
	}
}

// TestBarrierWaitRankRanks checks every rank 0..n−1 is handed out
// exactly once per crossing and that exactly the rank-(n−1) participant
// sees last == true.
func TestBarrierWaitRankRanks(t *testing.T) {
	const n = 8
	b := NewBarrier(n)
	team := NewTeam(n)
	defer team.Close()
	var mu sync.Mutex
	ranks := make(map[int]int) // rank → count
	lasts := 0
	const crossings = 50
	team.Run(func(tid int) {
		for c := 0; c < crossings; c++ {
			rank, crossing, last := b.WaitRank()
			mu.Lock()
			ranks[rank]++
			if last {
				lasts++
				if rank != n-1 {
					t.Errorf("last arriver has rank %d, want %d", rank, n-1)
				}
			}
			if crossing != uint64(c) {
				t.Errorf("tid %d saw crossing %d at step %d", tid, crossing, c)
			}
			mu.Unlock()
		}
	})
	for r := 0; r < n; r++ {
		if ranks[r] != crossings {
			t.Errorf("rank %d handed out %d times, want %d", r, ranks[r], crossings)
		}
	}
	if lasts != crossings {
		t.Errorf("last flagged %d times, want %d", lasts, crossings)
	}
}

// TestTimedBarrierSingleThread checks the degenerate one-participant
// barrier stays a no-op (and still reports a zero-ish wait).
func TestTimedBarrierSingleThread(t *testing.T) {
	called := 0
	tb := TimedBarrier{B: NewBarrier(1), Arrive: func(step, site, tid, rank int, _ uint64, w time.Duration, last bool) {
		called++
		if step != 9 || site != 3 || tid != 0 || rank != 0 || !last {
			t.Errorf("got step=%d site=%d tid=%d rank=%d last=%v", step, site, tid, rank, last)
		}
		if w > time.Second {
			t.Errorf("implausible wait %v for 1-thread barrier", w)
		}
	}}
	tb.Wait(9, 3, 0)
	if called != 1 {
		t.Fatalf("recorder called %d times, want 1", called)
	}
}
