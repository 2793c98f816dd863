package lbmib

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"lbmib/internal/core"
	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
)

// A checkpoint is a versioned block stream; every number is little-endian:
//
//	magic   8 bytes "LBMIBCKP"
//	header  version uint32 (2), step int64, NX NY NZ uint32, sheet count
//	        uint32, then per sheet NumFibers and NodesPerFiber uint32
//	fluid   per node in x-major order (x, then y, then z): the 19 present
//	        distributions, ρ, u and F — 26 float64, 208 bytes
//	sheets  per sheet: Ks, Kb, RestAlong, RestAcross, then the X, Vel,
//	        BendForce, StretchForce and Force arrays (3 float64 per node
//	        each), then Fixed (one byte per node, 0 or 1)
//
// The format is defined by content, not by any engine's storage, so a
// checkpoint restores onto any engine, thread count and cube size. The
// post-streaming buffer is not written: every engine's stream writes each
// of its slots before the next step reads one.
const checkpointVersion = 2

var checkpointMagic = [8]byte{'L', 'B', 'M', 'I', 'B', 'C', 'K', 'P'}

const (
	headerBytes = 28                  // the header up to the sheet shapes
	recordBytes = 8 * (lattice.Q + 7) // one fluid node: distributions, ρ, u, F
)

var le = binary.LittleEndian

// checkpointHeader is what a checkpoint declares before its state: enough
// to reject it against a Config before anything is built.
type checkpointHeader struct {
	step       int
	nx, ny, nz int
	sheets     [][2]int // NumFibers, NodesPerFiber
}

// sheetShapes lists the NumFibers×NodesPerFiber shape of every sheet cfg
// builds, in the order New builds them.
func sheetShapes(cfg Config) [][2]int {
	var shapes [][2]int
	for _, sc := range append(append([]*SheetConfig(nil), cfg.Sheets...), cfg.Sheet) {
		if sc != nil {
			shapes = append(shapes, [2]int{sc.NumFibers, sc.NodesPerFiber})
		}
	}
	return shapes
}

// check rejects a checkpoint that cfg cannot hold.
func (h *checkpointHeader) check(cfg Config) error {
	if h.step < 0 {
		return fmt.Errorf("lbmib: decoding checkpoint: negative step %d", h.step)
	}
	if cfg.NX != h.nx || cfg.NY != h.ny || cfg.NZ != h.nz {
		return fmt.Errorf("lbmib: checkpoint grid %d×%d×%d, config %d×%d×%d",
			h.nx, h.ny, h.nz, cfg.NX, cfg.NY, cfg.NZ)
	}
	want := sheetShapes(cfg)
	if len(h.sheets) != len(want) {
		return fmt.Errorf("lbmib: checkpoint has %d sheets, config builds %d", len(h.sheets), len(want))
	}
	for i, s := range h.sheets {
		if s != want[i] {
			return fmt.Errorf("lbmib: sheet %d shape %d×%d in checkpoint, %d×%d in config",
				i, s[0], s[1], want[i][0], want[i][1])
		}
	}
	return nil
}

// eachPlane visits l's nodes in the checkpoint's canonical order — x-major:
// x, then y, then z — one x-plane at a time: fn gets the layout indices of
// plane x's NY·NZ nodes in (y, z) order, in a slice reused across planes.
// It stops at fn's first error and returns it.
func eachPlane(l core.Layout, fn func(x int, plane []int) error) error {
	nx, ny, nz := l.Dims()
	at := grid.AxisIndex(l)
	plane := make([]int, ny*nz)
	for x := 0; x < nx; x++ {
		i := 0
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				plane[i] = at[0][x] + at[1][y] + at[2][z]
				i++
			}
		}
		if err := fn(x, plane); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint writes the complete simulation state (fluid distributions,
// macroscopic fields, sheet geometry and forces, step count) to w in the
// block format above, read straight from the engine's live layout. The
// state is engine-independent: a run checkpointed from the sequential
// engine restores onto the cube engine and vice versa.
func (s *Simulation) Checkpoint(w io.Writer) error {
	l := s.eng.live()
	nx, ny, nz := l.Dims()
	b := append([]byte(nil), checkpointMagic[:]...)
	b = le.AppendUint32(b, checkpointVersion)
	b = le.AppendUint64(b, uint64(s.StepCount()))
	b = le.AppendUint32(b, uint32(nx))
	b = le.AppendUint32(b, uint32(ny))
	b = le.AppendUint32(b, uint32(nz))
	b = le.AppendUint32(b, uint32(len(s.sheets)))
	for _, sh := range s.sheets {
		b = le.AppendUint32(b, uint32(sh.NumFibers))
		b = le.AppendUint32(b, uint32(sh.NodesPerFiber))
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("lbmib: writing checkpoint: %w", err)
	}

	// The fluid, one x-plane at a time through one reused buffer.
	df, macro, buf := l.Dist(l.Cur()), l.Macros(), make([]byte, ny*nz*recordBytes)
	if err := eachPlane(l, func(_ int, plane []int) error {
		for i, j := range plane {
			putRecord(buf[i*recordBytes:], &df[j], &macro[j])
		}
		_, err := w.Write(buf)
		return err
	}); err != nil {
		return fmt.Errorf("lbmib: writing checkpoint: %w", err)
	}

	for _, sh := range s.sheets {
		b = appendFloats(b[:0], sh.Ks, sh.Kb, sh.RestAlong, sh.RestAcross)
		for _, arr := range sheetArrays(sh) {
			for _, v := range arr {
				b = appendFloats(b, v[:]...)
			}
		}
		for _, f := range sh.Fixed {
			if f {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("lbmib: writing checkpoint: %w", err)
		}
	}
	return nil
}

// sheetArrays lists a sheet's per-node vector arrays in stream order.
func sheetArrays(sh *fiber.Sheet) [5][]fiber.Vec3 {
	return [5][]fiber.Vec3{sh.X, sh.Vel, sh.BendForce, sh.StretchForce, sh.Force}
}

func appendFloats(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func getFloat(b []byte, i int) float64 { return math.Float64frombits(le.Uint64(b[8*i:])) }

// putRecord encodes one node — its present distributions df, then ρ, u
// and F from its record m — into b.
func putRecord(b []byte, df *[lattice.Q]float64, m *grid.Macro) {
	_ = b[recordBytes-1]
	for q, v := range df {
		le.PutUint64(b[8*q:], math.Float64bits(v))
	}
	for i, v := range [7]float64{m.Rho, m.Vel[0], m.Vel[1], m.Vel[2], m.Force[0], m.Force[1], m.Force[2]} {
		le.PutUint64(b[8*(lattice.Q+i):], math.Float64bits(v))
	}
}

// getRecord is putRecord's inverse.
func getRecord(b []byte, df *[lattice.Q]float64, m *grid.Macro) {
	_ = b[recordBytes-1]
	for q := range df {
		df[q] = getFloat(b, q)
	}
	m.Rho = getFloat(b, lattice.Q)
	m.Vel = [3]float64{getFloat(b, lattice.Q+1), getFloat(b, lattice.Q+2), getFloat(b, lattice.Q+3)}
	m.Force = [3]float64{getFloat(b, lattice.Q+4), getFloat(b, lattice.Q+5), getFloat(b, lattice.Q+6)}
}

// restoreSizeLimit bounds how many bytes Restore will read for cfg: a
// well-formed checkpoint costs well under 1 KiB per fluid node (208 bytes
// in the block format; 45 float64 fields at ≤ 9 bytes each in a version-1
// gob stream) and per fiber node, plus a fixed allowance for the headers.
// Reading through this cap turns a corrupt stream that declares a huge
// slice into a decode error instead of an unbounded allocation.
func restoreSizeLimit(cfg Config) int64 {
	limit := int64(1<<16) + int64(cfg.NX)*int64(cfg.NY)*int64(cfg.NZ)*1024
	for _, sh := range sheetShapes(cfg) {
		limit += 4096 + int64(sh[0])*int64(sh[1])*1024
	}
	return limit
}

// Restore builds a Simulation from cfg and overwrites its state with a
// checkpoint previously written by Checkpoint, in the block format or as
// a version-1 gob stream. The configuration's grid dimensions and sheet
// shapes must match the checkpoint, and are checked before anything is
// built; engine kind, thread count and cube size are free to differ.
//
// A checkpoint is external input, so Restore decodes defensively: input
// is read through a size cap derived from cfg (truncated, oversized or
// length-corrupted streams return an error rather than allocating
// unboundedly), and a decoder panic is converted into an error.
func Restore(r io.Reader, cfg Config) (sim *Simulation, err error) {
	if cfg.NX < 1 || cfg.NY < 1 || cfg.NZ < 1 {
		return nil, fmt.Errorf("lbmib: invalid grid %d×%d×%d", cfg.NX, cfg.NY, cfg.NZ)
	}
	defer func() {
		if p := recover(); p != nil {
			sim = nil
			err = fmt.Errorf("lbmib: decoding checkpoint: panic: %v", p)
		}
	}()
	r = io.LimitReader(r, restoreSizeLimit(cfg))
	var magic [8]byte
	n, err := io.ReadFull(r, magic[:])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, fmt.Errorf("lbmib: decoding checkpoint: %w", err)
	}
	if magic == checkpointMagic {
		return restoreBlocks(r, cfg)
	}
	return restoreGob(io.MultiReader(bytes.NewReader(magic[:n]), r), cfg)
}

// restoreChecked checks h against cfg, then builds the Simulation and has
// fill load the checkpoint's state into it.
func restoreChecked(cfg Config, h checkpointHeader, fill func(*Simulation) error) (*Simulation, error) {
	if err := h.check(cfg); err != nil {
		return nil, err
	}
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := fill(sim); err != nil {
		sim.Close()
		return nil, err
	}
	sim.eng.loaded()
	sim.stepOffset = h.step
	return sim, nil
}

// restoreBlocks reads a block-format checkpoint whose magic has been
// consumed: the header, then the fluid records straight into the new
// engine's live layout, then the sheets.
func restoreBlocks(r io.Reader, cfg Config) (*Simulation, error) {
	h, err := readHeader(r, len(sheetShapes(cfg)))
	if err != nil {
		return nil, err
	}
	return restoreChecked(cfg, h, func(sim *Simulation) error {
		l := sim.eng.live()
		df, macro, buf := l.Dist(l.Cur()), l.Macros(), make([]byte, h.ny*h.nz*recordBytes)
		if err := eachPlane(l, func(x int, plane []int) error {
			if _, err := io.ReadFull(r, buf); err != nil {
				return fmt.Errorf("lbmib: decoding checkpoint: fluid plane %d: %w", x, err)
			}
			for i, j := range plane {
				getRecord(buf[i*recordBytes:], &df[j], &macro[j])
			}
			return nil
		}); err != nil {
			return err
		}
		for i, sh := range sim.sheets {
			if err := readSheet(r, sh); err != nil {
				return fmt.Errorf("lbmib: decoding checkpoint: sheet %d: %w", i, err)
			}
		}
		return nil
	})
}

// readHeader reads the header; a stream declaring more than maxSheets
// sheets is rejected before their shapes are read.
func readHeader(r io.Reader, maxSheets int) (checkpointHeader, error) {
	var h checkpointHeader
	var b [headerBytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return h, fmt.Errorf("lbmib: decoding checkpoint: header: %w", err)
	}
	if v := le.Uint32(b[:]); v != checkpointVersion {
		return h, fmt.Errorf("lbmib: checkpoint version %d, want %d", v, checkpointVersion)
	}
	h.step = int(int64(le.Uint64(b[4:])))
	h.nx, h.ny, h.nz = int(le.Uint32(b[12:])), int(le.Uint32(b[16:])), int(le.Uint32(b[20:]))
	ns := le.Uint32(b[24:])
	if ns > uint32(maxSheets) {
		return h, fmt.Errorf("lbmib: checkpoint has %d sheets, config builds %d", ns, maxSheets)
	}
	h.sheets = make([][2]int, ns)
	sb := make([]byte, 8*ns)
	if _, err := io.ReadFull(r, sb); err != nil {
		return h, fmt.Errorf("lbmib: decoding checkpoint: header: %w", err)
	}
	for i := range h.sheets {
		h.sheets[i] = [2]int{int(le.Uint32(sb[8*i:])), int(le.Uint32(sb[8*i+4:]))}
	}
	return h, nil
}

// readSheet reads one sheet's block into sh, whose shape the header check
// has matched.
func readSheet(r io.Reader, sh *fiber.Sheet) error {
	n := sh.NumNodes()
	b := make([]byte, 8*(4+15*n)+n)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	sh.Ks, sh.Kb, sh.RestAlong, sh.RestAcross = getFloat(b, 0), getFloat(b, 1), getFloat(b, 2), getFloat(b, 3)
	i := 4
	for _, arr := range sheetArrays(sh) {
		for j := range arr {
			arr[j] = fiber.Vec3{getFloat(b, i), getFloat(b, i+1), getFloat(b, i+2)}
			i += 3
		}
	}
	for j, f := range b[8*i:] {
		if f > 1 {
			return fmt.Errorf("fixed flag %d at node %d", f, j)
		}
		sh.Fixed[j] = f == 1
	}
	return nil
}

// gobCheckpointVersion is the version a version-1 checkpoint — an
// encoding/gob stream of checkpointState, holding both distribution
// buffers of a normalized slab grid — carries. Restore still reads it.
const gobCheckpointVersion = 1

// sheetState is the version-1 form of one fiber sheet.
type sheetState struct {
	NumFibers, NodesPerFiber int
	Ks, Kb                   float64
	RestAlong, RestAcross    float64
	X, Vel                   [][3]float64
	Bend, Stretch, Force     [][3]float64
	Fixed                    []bool
}

// checkpointState is the version-1 simulation state.
type checkpointState struct {
	Version    int
	Step       int
	NX, NY, NZ int
	Nodes      []grid.Node
	Sheets     []sheetState
}

// restoreGob reads a version-1 checkpoint.
func restoreGob(r io.Reader, cfg Config) (*Simulation, error) {
	var st checkpointState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("lbmib: decoding checkpoint: %w", err)
	}
	if st.Version != gobCheckpointVersion {
		return nil, fmt.Errorf("lbmib: gob checkpoint version %d, want %d", st.Version, gobCheckpointVersion)
	}
	if want := st.NX * st.NY * st.NZ; len(st.Nodes) != want {
		return nil, fmt.Errorf("lbmib: checkpoint holds %d nodes, want %d", len(st.Nodes), want)
	}
	h := checkpointHeader{step: st.Step, nx: st.NX, ny: st.NY, nz: st.NZ}
	for _, ss := range st.Sheets {
		h.sheets = append(h.sheets, [2]int{ss.NumFibers, ss.NodesPerFiber})
	}
	return restoreChecked(cfg, h, func(sim *Simulation) error {
		for i, ss := range st.Sheets {
			if err := restoreSheet(sim.sheets[i], ss); err != nil {
				return fmt.Errorf("lbmib: sheet %d: %w", i, err)
			}
		}
		// The stream's nodes are a normalized slab grid in canonical order:
		// present distributions in DF.
		l := sim.eng.live()
		df, macro, src := l.Dist(l.Cur()), l.Macros(), st.Nodes
		return eachPlane(l, func(_ int, plane []int) error {
			for i, j := range plane {
				n := &src[i]
				df[j], macro[j] = n.DF, grid.Macro{Vel: n.Vel, Rho: n.Rho, Force: n.Force}
			}
			src = src[len(plane):]
			return nil
		})
	})
}

func restoreSheet(sh *fiber.Sheet, ss sheetState) error {
	n := sh.NumNodes()
	for _, arr := range [][][3]float64{ss.X, ss.Vel, ss.Bend, ss.Stretch, ss.Force} {
		if len(arr) != n {
			return fmt.Errorf("array of %d nodes, want %d", len(arr), n)
		}
	}
	if len(ss.Fixed) != n {
		return fmt.Errorf("fixed mask of %d nodes, want %d", len(ss.Fixed), n)
	}
	copy(sh.X, ss.X)
	copy(sh.Vel, ss.Vel)
	copy(sh.BendForce, ss.Bend)
	copy(sh.StretchForce, ss.Stretch)
	copy(sh.Force, ss.Force)
	copy(sh.Fixed, ss.Fixed)
	sh.Ks, sh.Kb = ss.Ks, ss.Kb
	sh.RestAlong, sh.RestAcross = ss.RestAlong, ss.RestAcross
	return nil
}
