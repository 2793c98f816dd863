package core

import "lbmib/internal/lattice"

// Support is the state of an in-place engine's records, block by block,
// that lets a step make one pass over the distributions instead of two
// (DESIGN.md §5). Kernel 7 exists to fill each record with the density
// and velocity of the values the step left, for kernel 8 and for the next
// step's collide. Kernel 8 needs them only at the stencils of the
// structure, and the next collide loads the very same values itself, so
// an engine runs the moments pass (AAMomentsBlock) only on the step's
// support Sₙ — the blocks a stencil of Xⁿ reaches, the same stencils
// serving kernels 4 and 8 — and every other block's record goes stale:
// its next collide folds the moments in (AABlock's fold). A block outside
// Sₙ received no spread, so the force its values were produced under is
// the body force, which is what the fold uses.
//
// Two sets are kept per step n and swap roles each step: fresh, the
// blocks whose records hold the moments of the array's present values
// (Sₙ₋₁, plus what a refresh or a load brought up to date), which the
// collide reads and clears block by block; and reach, Sₙ, which the
// owners mark during kernel 4 (SpreadBox) and the moments pass reads.
// After the step, reach is the next step's fresh set, and the cleared
// fresh set is the next reach. Every entry is read and written only by
// its block's owner, so a step needs no serial pass over the sets and no
// synchronization beyond what its bodies already have.
//
// Between steps, a reader of whole records — Live and everything built
// on it, the facade's point accessors — refreshes the stale ones first
// (RefreshBlocks, one range of blocks per worker): the moments body
// without the force reset, whose force is then the body force. The explicit digest between steps refreshes each
// stale block in the loop that digests it (grid.DigestGrid.Begin); the
// per-step sample needs no refresh, since the next collide's fold
// computes the stale blocks' moments anyway (AABlock with a digest).
type Support struct {
	sets [2][]bool
	cur  int  // sets[cur] is the fresh set of the next step
	dirt bool // a record may be stale: a step ran since every block was fresh
}

// NewSupport returns the state of a layout of blocks blocks whose records
// are all fresh, as construction writes them.
func NewSupport(blocks int) *Support {
	p := &Support{sets: [2][]bool{make([]bool, blocks), make([]bool, blocks)}}
	p.Loaded()
	return p
}

// Loaded marks every record fresh, for records written from outside — a
// construction's initial state or a restored checkpoint. Their density
// and velocity are the state itself; lattice.Moments of an equilibrium
// need not return them bit for bit, so they must not be re-derived.
func (p *Support) Loaded() {
	for i := range p.sets[p.cur] {
		p.sets[p.cur][i], p.sets[1-p.cur][i] = true, false
	}
	p.dirt = false
}

// Sets returns the fresh and reach sets of the k-th step from now, k = 0
// being the next: a worker that runs several steps without returning
// (the cube engine) derives them from its step count, as it does the
// array's phase.
func (p *Support) Sets(k int) (fresh, reach []bool) {
	i := p.cur ^ k&1
	return p.sets[i], p.sets[1-i]
}

// Take returns AABlock's fold and force arguments for block b in the
// k-th step from now, body being the body force, and clears b's fresh
// entry: once b has collided, its record's moments are the previous
// step's. A stale record folds the moments in; a block outside the
// step's support collides with the body force, so a block in neither set
// never touches its record.
func (p *Support) Take(k, b int, body *[3]float64) (fold, force *[3]float64) {
	fresh, reach := p.Sets(k)
	if !fresh[b] {
		fold = body
	}
	if !reach[b] {
		force = body
	}
	fresh[b] = false
	return fold, force
}

// Advance records that n steps ran.
func (p *Support) Advance(n int) {
	p.cur ^= n & 1
	p.dirt = p.dirt || n > 0
}

// Refreshed records that every block has just been refreshed: by
// RefreshBlocks over all of them, or by the explicit digest, which
// refreshes each stale block as it digests it (grid.DigestGrid.Begin).
func (p *Support) Refreshed() { p.dirt = false }

// Share returns the range [lo, hi) of blocks that holds worker i's share
// of the step's support reach when parts workers split it: the set
// blocks in index order, dealt out in contiguous runs whose counts
// differ by at most one. Kernel 7 runs on the support alone, which a
// structure confines to a few neighbouring blocks; dealt by ownership
// instead, it falls on the one or two workers that own them.
func Share(reach []bool, parts, i int) (lo, hi int) {
	n := 0
	for _, r := range reach {
		if r {
			n++
		}
	}
	a, b := n*i/parts, n*(i+1)/parts
	lo, hi = len(reach), len(reach)
	k := 0
	for j, r := range reach {
		if !r {
			continue
		}
		if k == a {
			lo = j
		}
		if k == b {
			hi = j
			break
		}
		k++
	}
	return lo, hi
}

// Dirty reports whether a record may be stale: a step ran since every
// block was last fresh.
func (p *Support) Dirty() bool { return p.dirt }

// RefreshBlocks brings the stale records of blocks [lo, hi) up to date
// from the array df, in phase swapped: AAMomentsBlock with no force
// reset. It reads the array and writes only those blocks' records and
// fresh entries, so ranges that partition the blocks may run
// concurrently; once all have run, the caller records it (Refreshed).
// Between steps only.
func RefreshBlocks(s *Streamer, df [][lattice.Q]float64, p *Support, swapped bool, lo, hi int) {
	fresh := p.sets[p.cur]
	for b := lo; b < hi; b++ {
		if !fresh[b] {
			AAMomentsBlock(s, df, b, swapped, nil)
			fresh[b] = true
		}
	}
}
