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

// A group whose last node is the last node of its array reads and
// writes nothing past it: with the direction-major populations, and then
// the records, ending where an inaccessible page begins, every group
// size at the end of the array, the natural phase's tables shared by
// the four lanes (vector loads and stores) and as four copies (per-lane
// loads and stores), with the trade and without, and with every
// combination of fold and given force, runs without a fault and gives
// the Go twin's bits. A short group there has no entry past its last
// node to store an unused lane into, nor a record past its last node's
// to read one from: either would fault. Its unused lanes' tables are
// nil, so a read of one would fault too.
func TestGroupReadsNothingPastTheArray(t *testing.T) {
	const nodes = 8
	popPage, recPage := guarded(t), guarded(t)
	r := rand.New(rand.NewSource(28))
	fold, force := [3]float64{3e-3, -1e-3, 2e-3}, [3]float64{-1e-3, 4e-3, 1e-3}
	f := unsafe.Slice((*float64)(unsafe.Pointer(&popPage[len(popPage)-Q*nodes*8])), Q*nodes)
	nat, tr := Natural(nodes), Traded(nodes)
	var copies [2][Lanes]Offsets
	for n := 1; n <= Lanes; n++ {
		i := nodes - n
		recs := unsafe.Slice((*Record)(unsafe.Pointer(&recPage[len(recPage)-n*int(unsafe.Sizeof(Record{}))])), n)
		for _, store := range []*Offsets{&nat, &tr} {
			for _, shared := range []bool{true, false} {
				grp := Uniform(&nat, store)
				if !shared {
					for k := range grp.Load {
						copies[0][k], copies[1][k] = nat, *store
						grp.Load[k], grp.Store[k] = &copies[0][k], &copies[1][k]
					}
				}
				for k := n; k < Lanes; k++ {
					grp.Load[k], grp.Store[k] = nil, nil
				}
				for _, fs := range [][2]*[3]float64{{nil, nil}, {&fold, nil}, {nil, &force}, {&fold, &force}} {
					for j := range f {
						f[j] = r.Float64()
					}
					for k := range recs {
						s := randomState(r)
						recs[k] = Record{Vel: s.u, Rho: s.rho, Force: s.f}
					}
					want := append([]float64(nil), f...)
					collideGroup(want, i, n, &grp, recs, fs[0], fs[1], 0.7, nil)
					var out [Lanes]State
					CollideGroup(f, i, n, &grp, recs, fs[0], fs[1], 0.7, &out)
					for j := range f {
						if !sameBits(f[j], want[j]) {
							t.Fatalf("%d nodes, traded %t, shared %t, fold %v, force %v: slot %d differs", n, store == &tr, shared, fs[0], fs[1], j)
						}
					}
				}
			}
		}
	}
}

// A moments group whose last node is the last node of its array, and
// whose last record ends where an inaccessible page begins, reads and
// writes nothing past either: every group size, the natural tables
// shared (vector loads) and as four copies (per-lane loads), the unused
// lanes' tables nil, with and without a reset, runs without a fault and
// gives the Go twin's records bit for bit.
func TestMomentsGroupReadsNothingPastTheArray(t *testing.T) {
	const nodes = 8
	popPage, recPage := guarded(t), guarded(t)
	r := rand.New(rand.NewSource(31))
	reset := [3]float64{-1e-3, 4e-3, 1e-3}
	f := unsafe.Slice((*float64)(unsafe.Pointer(&popPage[len(popPage)-Q*nodes*8])), Q*nodes)
	nat := Natural(nodes)
	var copies [Lanes]Offsets
	for n := 1; n <= Lanes; n++ {
		i := nodes - n
		recs := unsafe.Slice((*Record)(unsafe.Pointer(&recPage[len(recPage)-n*int(unsafe.Sizeof(Record{}))])), n)
		for _, shared := range []bool{true, false} {
			grp := Uniform(&nat, nil)
			if !shared {
				for k := range grp.Load {
					copies[k] = nat
					grp.Load[k] = &copies[k]
				}
			}
			for k := n; k < Lanes; k++ {
				grp.Load[k] = nil
			}
			for _, rs := range []*[3]float64{nil, &reset} {
				for j := range f {
					f[j] = r.Float64()
				}
				for k := range recs {
					s := randomState(r)
					recs[k] = Record{Vel: s.u, Rho: s.rho, Force: s.f}
				}
				want := append([]Record(nil), recs...)
				momentsGroup(f, i, n, &grp, want, rs)
				MomentsGroup(f, i, n, &grp, recs, rs)
				for k := range recs {
					if recs[k] != want[k] {
						t.Fatalf("%d nodes, shared %t, reset %v: record %d is %+v, want %+v", n, shared, rs, k, recs[k], want[k])
					}
				}
			}
		}
	}
}
