package lattice

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps two pages and makes the second inaccessible, so that any
// access past the end of the first faults. It returns the first page.
func guarded(t *testing.T) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("no anonymous mapping: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("no guard page: %v", err)
	}
	return mem[:page]
}

// A group whose last node is the last record of its array reads nothing
// past it: with the populations, and then the records, ending where an
// inaccessible page begins, every group size, with and without the
// trade and with every combination of
// fold and given force runs without a fault and gives the Go kernel's
// bits.
func TestGroupReadsNothingPastTheArray(t *testing.T) {
	requireVector(t)
	popPage, recPage := guarded(t), guarded(t)
	r := rand.New(rand.NewSource(28))
	fold, force := [3]float64{3e-3, -1e-3, 2e-3}, [3]float64{-1e-3, 4e-3, 1e-3}
	for n := 1; n <= Lanes; n++ {
		g := unsafe.Slice((*[Q]float64)(unsafe.Pointer(&popPage[len(popPage)-n*int(unsafe.Sizeof([Q]float64{}))])), n)
		recs := unsafe.Slice((*Record)(unsafe.Pointer(&recPage[len(recPage)-n*int(unsafe.Sizeof(Record{}))])), n)
		for _, trade := range []bool{false, true} {
			for _, fs := range [][2]*[3]float64{{nil, nil}, {&fold, nil}, {nil, &force}, {&fold, &force}} {
				want := make([][Q]float64, n)
				for k := range g {
					s := randomState(r)
					g[k], want[k] = s.g, s.g
					recs[k] = Record{Vel: s.u, Rho: s.rho, Force: s.f}
				}
				collideGroup(want, recs, fs[0], fs[1], 0.7, trade, nil)
				var out [Lanes]State
				CollideGroup(g, recs, fs[0], fs[1], 0.7, trade, &out)
				for k := range g {
					if d := firstDiff(&g[k], &want[k]); d >= 0 {
						t.Fatalf("%d nodes, trade %t, fold %v, force %v: node %d slot %d differs", n, trade, fs[0], fs[1], k, d)
					}
				}
			}
		}
	}
}
