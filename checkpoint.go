package lbmib

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"lbmib/internal/fiber"
	"lbmib/internal/grid"
	"lbmib/internal/lattice"
	"lbmib/internal/par"
)

// A checkpoint is a versioned block stream; every number is little-endian:
//
//	magic   8 bytes "LBMIBCKP"
//	header  version uint32 (3), step int64, NX NY NZ uint32, sheet count
//	        uint32, then per sheet NumFibers and NodesPerFiber uint32
//	fluid   per node in x-major order (x, then y, then z): the 19 present
//	        distributions, ρ and u — 23 float64, 184 bytes
//	sheets  per sheet: Ks, Kb, RestAlong, RestAcross, then the X, Vel,
//	        BendForce, StretchForce and Force arrays (3 float64 per node
//	        each), then Fixed (one byte per node, 0 or 1)
//
// The format is defined by content, not by any engine's storage, so a
// checkpoint restores onto any engine, thread count and cube size. It
// holds the present distributions in the natural phase, which the engine
// presents (live) whatever phase its in-place stream left them in; the
// sequential engine's post-streaming array is not written, since its
// stream writes each slot before the next step reads one, nor is the
// force, which every engine's next step resets to the body force.
// Version 2 records also held F after u (26 float64); Restore skips it.
const checkpointVersion = 3

var checkpointMagic = [8]byte{'L', 'B', 'M', 'I', 'B', 'C', 'K', 'P'}

const (
	headerBytes = 28                  // the header up to the sheet shapes
	recordBytes = 8 * (lattice.Q + 4) // one fluid node: distributions, ρ, u
)

// recordStride is the stride of a fluid record by the versions Restore
// reads: a version-2 record holds F after u.
var recordStride = map[uint32]int{2: 8 * (lattice.Q + 7), checkpointVersion: recordBytes}

var le = binary.LittleEndian

// checkpointHeader is what a checkpoint declares before its state: enough
// to reject it against a Config before anything is built.
type checkpointHeader struct {
	stride     int // the bytes of one fluid record
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

// eachPlane has team t visit the x-planes 0..nx−1, one static range of
// planes per worker: fn(x) reads or writes plane x's nodes only. The
// fluid of a checkpoint is x-major — x, then y, then z — so plane x is
// one contiguous run of NY·NZ records of the stream and of a snapshot.
func eachPlane(t *par.Team, nx int, fn func(x int)) {
	t.Run(func(p int) {
		lo, hi := par.StaticRange(nx, t.Size(), p)
		for x := lo; x < hi; x++ {
			fn(x)
		}
	})
}

// checkpointSize is the length of the checkpoint Checkpoint writes: the
// magic, the header, 184 bytes per fluid node and each sheet's block.
func (s *Simulation) checkpointSize() int {
	n := len(checkpointMagic) + headerBytes + 8*len(s.sheets) + s.cfg.NX*s.cfg.NY*s.cfg.NZ*recordBytes
	for _, sh := range s.sheets {
		n += sheetBytes(sh.NumNodes())
	}
	return n
}

// sheetBytes is the length of the block of a sheet of n nodes: four
// parameters, five vector arrays, one fixed flag per node.
func sheetBytes(n int) int { return 8*(4+15*n) + n }

// Checkpoint writes the complete simulation state (fluid distributions,
// macroscopic fields, sheet geometry and forces, step count) to w in the
// block format above, read straight from the engine's live layout. The
// state is engine-independent: a run checkpointed from the sequential
// engine restores onto the cube engine and vice versa. The fluid is
// encoded on the engine's team, an x-plane per worker and round, and
// written in plane order (par.Ordered), so the bytes do not depend on
// the engine or its width.
func (s *Simulation) Checkpoint(w io.Writer) error {
	l := s.live()
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

	df, macro, at := l.Dist(), l.Macros(), grid.AxisIndex(l)
	planeBytes := ny * nz * recordBytes
	if err := s.ordered().Write(w, nx, func(x int, buf []byte) []byte {
		buf = slices.Grow(buf, planeBytes)[:planeBytes]
		for y := 0; y < ny; y++ {
			jy, row := at[0][x]+at[1][y], buf[y*nz*recordBytes:]
			for z, az := range at[2] {
				putRecord(row[z*recordBytes:], &df[jy+az], &macro[jy+az])
			}
		}
		return buf
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

// putRecord encodes one node — its present distributions df, then ρ and
// u from its record m — into b.
func putRecord(b []byte, df *[lattice.Q]float64, m *grid.Macro) {
	_ = b[recordBytes-1]
	for q, v := range df {
		le.PutUint64(b[8*q:], math.Float64bits(v))
	}
	for i, v := range [4]float64{m.Rho, m.Vel[0], m.Vel[1], m.Vel[2]} {
		le.PutUint64(b[8*(lattice.Q+i):], math.Float64bits(v))
	}
}

// getRecord is putRecord's inverse; it leaves m.Force as it is. A
// version-2 record begins with the same 23 float64.
func getRecord(b []byte, df *[lattice.Q]float64, m *grid.Macro) {
	_ = b[recordBytes-1]
	for q := range df {
		df[q] = getFloat(b, q)
	}
	m.Rho = getFloat(b, lattice.Q)
	m.Vel = [3]float64{getFloat(b, lattice.Q+1), getFloat(b, lattice.Q+2), getFloat(b, lattice.Q+3)}
}

// restoreSizeLimit bounds how many bytes Restore will read for cfg: a
// well-formed checkpoint costs well under 1 KiB per fluid node (184 bytes
// in the block format, 208 in version 2; 45 float64 fields at ≤ 9 bytes
// each in a version-1 gob stream) and per fiber node, plus a fixed
// allowance for the headers. Reading through this cap turns a corrupt stream that declares a huge
// slice into a decode error instead of an unbounded allocation.
func restoreSizeLimit(cfg Config) int64 {
	limit := int64(1<<16) + int64(cfg.NX)*int64(cfg.NY)*int64(cfg.NZ)*1024
	for _, sh := range sheetShapes(cfg) {
		limit += 4096 + int64(sh[0])*int64(sh[1])*1024
	}
	return limit
}

// Restore builds a Simulation from cfg and overwrites its state with a
// checkpoint previously written by Checkpoint, in the block format (its
// version 3 or 2) or as a version-1 gob stream. The configuration's grid dimensions and sheet
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
// engine's live layout, read an x-plane per worker and round and decoded
// on its team (par.Ordered), then the sheets. A version-2 record's force
// is skipped: the force is the one New and the engine's load leave.
func restoreBlocks(r io.Reader, cfg Config) (*Simulation, error) {
	h, err := readHeader(r, len(sheetShapes(cfg)))
	if err != nil {
		return nil, err
	}
	return restoreChecked(cfg, h, func(sim *Simulation) error {
		l := sim.eng.live()
		df, macro, at := l.Dist(), l.Macros(), grid.AxisIndex(l)
		ny, nz, stride := h.ny, h.nz, h.stride
		if x, err := sim.ordered().Read(r, h.nx, ny*nz*stride, func(x int, buf []byte) {
			for y := 0; y < ny; y++ {
				jy, row := at[0][x]+at[1][y], buf[y*nz*stride:]
				for z, az := range at[2] {
					getRecord(row[z*stride:], &df[jy+az], &macro[jy+az])
				}
			}
		}); err != nil {
			return fmt.Errorf("lbmib: decoding checkpoint: fluid plane %d: %w", x, err)
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
	if h.stride = recordStride[le.Uint32(b[:])]; h.stride == 0 {
		return h, fmt.Errorf("lbmib: checkpoint version %d, want 2 or %d", le.Uint32(b[:]), checkpointVersion)
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
	b := make([]byte, sheetBytes(sh.NumNodes()))
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
		df, macro, at := l.Dist(), l.Macros(), grid.AxisIndex(l)
		eachPlane(sim.eng.team(), st.NX, func(x int) {
			src := st.Nodes[x*st.NY*st.NZ:]
			for y := 0; y < st.NY; y++ {
				jy := at[0][x] + at[1][y]
				for z, az := range at[2] {
					n := &src[y*st.NZ+z]
					df[jy+az], macro[jy+az] = n.DF, grid.Macro{Vel: n.Vel, Rho: n.Rho, Force: n.Force}
				}
			}
		})
		return nil
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
