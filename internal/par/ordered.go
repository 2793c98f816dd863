package par

import "io"

// Ordered streams a sequence of chunks through a team in ordered rounds:
// chunk c belongs to worker c mod Size() and runs in round c / Size().
// In a round, every worker formats (Write) or decodes (Read) its chunk in
// its own buffer at once, and the calling goroutine moves the buffers
// to or from the stream in chunk order. So the bytes of a stream do not
// depend on the team's width, and a width-1 team runs the same code
// inline. The buffers, one per worker, are allocated at first use and
// kept for the next stream; an Ordered is not safe for concurrent use.
type Ordered struct {
	team *Team
	bufs [][]byte
}

// NewOrdered returns an ordered stream over team t. It allocates no
// buffer.
func NewOrdered(t *Team) *Ordered { return &Ordered{team: t} }

// rounds runs chunks 0..n−1 in rounds: on the calling goroutine,
// before(c, w) for each chunk c of the round in chunk order, w being c's
// worker; then work(c, w) on the team, every chunk of the round at once;
// then after(c, w), again in chunk order. before and after may be nil.
// rounds stops at the first error before or after returns and returns
// it with its chunk.
func (o *Ordered) rounds(n int, before func(c, w int) error, work func(c, w int), after func(c, w int) error) (int, error) {
	if o.bufs == nil {
		o.bufs = make([][]byte, o.team.Size())
	}
	lo, hi := 0, 0
	serial := func(f func(c, w int) error) (int, error) {
		for c := lo; f != nil && c < hi; c++ {
			if err := f(c, c-lo); err != nil {
				return c, err
			}
		}
		return 0, nil
	}
	region := func(w int) {
		if c := lo + w; c < hi {
			work(c, w)
		}
	}
	for ; lo < n; lo = hi {
		hi = min(n, lo+len(o.bufs))
		if c, err := serial(before); err != nil {
			return c, err
		}
		o.team.Run(region)
		if c, err := serial(after); err != nil {
			return c, err
		}
	}
	return 0, nil
}

// Write writes n chunks to w in chunk order: on the team, format(c, b)
// appends chunk c to b, its worker's emptied buffer, and returns it;
// the caller then writes the round's buffers. Write stops at w's first
// error and returns it.
func (o *Ordered) Write(w io.Writer, n int, format func(c int, b []byte) []byte) error {
	_, err := o.rounds(n, nil, func(c, p int) {
		o.bufs[p] = format(c, o.bufs[p][:0])
	}, func(_, p int) error {
		_, err := w.Write(o.bufs[p])
		return err
	})
	return err
}

// Read reads n chunks of size bytes each from r in chunk order, a round
// at a time, and has the team decode them: decode(c, b) gets chunk c's
// bytes in its worker's buffer. It stops at the first chunk it cannot
// read in full and returns that chunk's index with the error; no chunk
// of that round is decoded.
func (o *Ordered) Read(r io.Reader, n, size int, decode func(c int, b []byte)) (int, error) {
	return o.rounds(n, func(_, p int) error {
		if cap(o.bufs[p]) < size {
			o.bufs[p] = make([]byte, size)
		}
		o.bufs[p] = o.bufs[p][:size]
		_, err := io.ReadFull(r, o.bufs[p])
		return err
	}, func(c, p int) {
		decode(c, o.bufs[p])
	}, nil)
}
