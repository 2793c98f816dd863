package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTeamRunAllWorkers(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		team := NewTeam(n)
		seen := make([]int32, n)
		team.Run(func(tid int) { atomic.AddInt32(&seen[tid], 1) })
		team.Close()
		for tid, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: worker %d ran %d times, want 1", n, tid, c)
			}
		}
	}
}

func TestTeamRunIsSynchronous(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var count int32
	for rep := 0; rep < 10; rep++ {
		team.Run(func(tid int) { atomic.AddInt32(&count, 1) })
		if got := atomic.LoadInt32(&count); got != int32(4*(rep+1)) {
			t.Fatalf("Run returned before all workers finished: count=%d", got)
		}
	}
}

func TestTeamSequentialReuse(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	total := int32(0)
	for i := 0; i < 50; i++ {
		team.Run(func(tid int) { atomic.AddInt32(&total, int32(tid)) })
	}
	if total != 50*3 { // 0+1+2 per round
		t.Fatalf("total = %d, want 150", total)
	}
}

func TestNewTeamPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTeam(0) did not panic")
		}
	}()
	NewTeam(0)
}

func TestCloseIdempotent(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close() // must not panic
}

func TestStaticRangeCoversAll(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		n := int(nRaw)%200 + 1
		nth := int(tRaw)%16 + 1
		covered := make([]int, n)
		prevHi := 0
		for tid := 0; tid < nth; tid++ {
			lo, hi := StaticRange(n, nth, tid)
			if lo != prevHi { // chunks must be contiguous and ordered
				return false
			}
			prevHi = hi
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}
		if prevHi != n {
			return false
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticRangeBalanced(t *testing.T) {
	// Chunk sizes differ by at most 1.
	for _, c := range []struct{ n, nth int }{{10, 3}, {64, 7}, {5, 8}, {100, 32}} {
		min, max := c.n, 0
		for tid := 0; tid < c.nth; tid++ {
			lo, hi := StaticRange(c.n, c.nth, tid)
			sz := hi - lo
			if sz < min {
				min = sz
			}
			if sz > max {
				max = sz
			}
		}
		if max-min > 1 {
			t.Fatalf("n=%d threads=%d: chunk sizes range %d..%d", c.n, c.nth, min, max)
		}
	}
}

func TestForStaticVisitsEachIndexOnce(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	n := 103
	hits := make([]int32, n)
	team.ForStatic(n, func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForStaticEmptyRange(t *testing.T) {
	team := NewTeam(8)
	defer team.Close()
	var calls int32
	team.ForStatic(3, func(tid, lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if lo >= hi {
			t.Error("body called with empty range")
		}
	})
	if calls != 3 {
		t.Fatalf("body called %d times for n=3, want 3", calls)
	}
}

func TestBarrierPhases(t *testing.T) {
	const n = 4
	const rounds = 25
	b := NewBarrier(n)
	team := NewTeam(n)
	defer team.Close()
	var counter int64
	fail := make(chan string, n)
	team.Run(func(tid int) {
		for r := 0; r < rounds; r++ {
			atomic.AddInt64(&counter, 1)
			b.Wait()
			// After the barrier every participant of round r has counted.
			if got := atomic.LoadInt64(&counter); got < int64((r+1)*n) {
				select {
				case fail <- "barrier released early":
				default:
				}
			}
			b.Wait() // second barrier so nobody races ahead into round r+1
		}
	})
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if counter != rounds*n {
		t.Fatalf("counter = %d, want %d", counter, rounds*n)
	}
}

func TestBarrierSingleParticipant(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 5; i++ {
		b.Wait() // must never block
	}
}

func TestNewBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}

// Workers run concurrently: with n workers blocked on one barrier inside
// Run, the region can only complete if they truly overlap.
func TestTeamWorkersRunConcurrently(t *testing.T) {
	n := 6
	team := NewTeam(n)
	defer team.Close()
	b := NewBarrier(n)
	done := make(chan struct{})
	go func() {
		team.Run(func(tid int) { b.Wait() })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers deadlocked on barrier: not truly concurrent")
	}
}
