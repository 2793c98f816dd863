#!/bin/sh
# Tier-1 verification: build + full test suite, static checks, the race
# detector on the packages where concurrency bugs would hide (telemetry
# sinks are called from every worker thread; the engine package's cube
# schedule owns the P×Q×R barrier choreography; both of its schedules,
# OpenMP and cube, stream one shared distribution array in place from
# worker threads, and every worker spreads fiber forces into the box of
# fluid it owns (a race here means two owned boxes overlap); the in-place
# and spread bodies they share live in core; the race detector does not instrument assembly, so a
# race build selects the Go bodies of the node kernel, the stencil, the
# spread and the gather (internal/cpu), and every record and
# distribution access kernels 4, 5 and 8 make is one it sees; both
# parallel schedules run their workers on par's team; the perfmon profile — Table I/II
# accumulators, step ring and crossing ring of the critical-path report
# — is written from all workers, and the worker that recycles a step
# slot folds it into atomic totals that the report reads while workers
# run; the flight recorder's one mutex guards the ring that workers
# write and the bundle writer encodes; par's timed barrier wraps the team
# barrier; the digest's pieces, which the engines' teams run
# concurrently, each write their own blocks' slots (grid), as the collide
# sweep of an observed step does through the facade (the root package's
# sampled-step tests);
# perfsim, cachesim and machine are left out: they start no
# goroutine and use no channel or atomic, so racing them checks nothing,
# and perfsim's cache replays were most of the race step's wall time),
# a seeded cross-engine differential sweep, two native-fuzz
# smokes, the flight-recorder smoke (whose bundle must carry the
# critical-path report), a bundle-replay smoke, a recorder-free watchdog
# smoke, five examples (three on the cube engine, poiseuille on every
# engine, movingsheet with its free sheet), one pass of every case of the
# per-body stream benchmark, of the node-kernel benchmark, of the
# coupling benchmark and of the observed-step benchmark (so they keep
# compiling and running), and the repo
# benchmark's verification pass on every workload.
#
# The barrier choreography is held once, by the tests. A thread that
# skips a barrier site (a tid-guarded wait, a thread-dependent return or
# break) hangs every multi-thread test of its engine into the -timeout;
# the engines' bitwise-vs-Sequential tests under the race detector below
# fail when a barrier that orders something is removed or folded, which
# is what makes a fold (cube's after_spread and end_of_step in fluid-only
# runs) legal. There is no static lock checker: no function holds a
# mutex while it takes another or runs a caller's function (DESIGN.md
# §11), so a lock-order cycle needs two edits, and every one-edit lock
# defect fails a test below, most by hanging it into its -timeout.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go test ./...
go vet ./...
test -z "$(gofmt -l .)"

# One collision arithmetic, and it stays lean. (1) The unrolled node
# kernel indexes a *[19]float64 with constants only; a bounds check the
# compiler could not remove there is a silent 2x on every engine, so the
# compiler's own report must name no line of kernel.go, in lattice
# itself or where core inlines its functions. kernel.go is the
# expression tree every lane of the vector body runs; the group entry
# (group.go) keeps the slice checks that bound what the vector body
# reads and writes, so the gate names kernel.go alone.
# (2) No engine composes a collision out of the oracle functions:
# outside tests, only initialisation (grid) names them.
if go build -gcflags='-d=ssa/check_bce/debug=1' ./internal/lattice/ ./internal/core/ 2>&1 | grep 'kernel\.go'; then
	echo "bounds check in the unrolled node kernel (internal/lattice/kernel.go)" >&2
	exit 1
fi
if grep -rn 'lattice\.\(Equilibrium\|GuoForce\)' --include='*.go' \
	internal/core internal/engine |
	grep -v '_test\.go:'; then
	echo "an engine package restates the collision arithmetic; call lattice.Collide" >&2
	exit 1
fi

# The vector bodies — the node kernel (internal/lattice/kernel_amd64.s:
# one node per lane, four nodes per call, each direction of the four
# nodes one 32-byte load and store of the direction-major array, or one
# 8-byte access per lane through per-lane offset tables), the
# Peskin stencil (internal/ibm/delta_amd64.s), the spread and the
# gather (internal/grid/coupling_amd64.s) — are their Go twins' bits
# (the packages' Vector tests), which holds only while they round where
# the Go expression trees round: a fused multiply-add rounds a product
# and a sum once, not twice, so no assembly file under internal/ may
# name one. Every assembly declaration keeps a portable twin (the
# *_noasm.go files; internal/cpu's probe reports no vector body there),
# which vet on a platform without the assembly checks. The body is
# chosen by the CPU probe (internal/cpu) alone; cpu.PortableForTest,
# which switches to the Go bodies, is for the tests and benchmarks that
# compare the two, and no non-test file outside internal/cpu may name it
# (a call or a method value alike).
if grep -n 'VFMADD\|VFMSUB\|VFNMADD\|VFNMSUB' internal/*/*.s; then
	echo "a fused multiply-add in a vector body's assembly moves bits" >&2
	exit 1
fi
GOARCH=arm64 go vet ./internal/cpu/ ./internal/lattice/ ./internal/ibm/ ./internal/grid/
if grep -rnw 'PortableForTest' --include='*.go' . | grep -v '_test\.go:' |
	grep -v '^\./internal/cpu/'; then
	echo "a non-test file switches the vector bodies off; only the CPU probe chooses them" >&2
	exit 1
fi

# One fold, in core's bodies. An in-place engine's collide may fold the
# previous step's moments in (core.AABlock with a fold force,
# core.Support): lattice.Moments on the values it has just loaded, then
# lattice.Collide, in the same order as the moments pass, which is what
# keeps the engines bitwise equal to Sequential. An engine that composed
# the two itself could drift from that order: outside tests, no file of
# internal/engine calls either.
if grep -rn 'lattice\.\(Moments\|Collide\)(' --include='*.go' \
	internal/engine |
	grep -v '_test\.go:'; then
	echo "an engine calls the node kernel itself; fold through core.AABlock" >&2
	exit 1
fi

# One moments body. Kernel 7 takes four nodes per call of the node
# kernel (lattice.MomentsGroup: one vector per direction of the
# direction-major array, the records written one vector per lane), in
# Sequential's pass, the in-place moments pass, the refresh of stale
# records and the digest's; a loop that gathers one node's 19 values at
# a time for the scalar lattice.Moments costs that pass twice over and
# must not come back: outside internal/lattice and the benchmark
# harness, no non-test Go file calls it.
if grep -rn 'lattice\.Moments(' --include='*.go' . | grep -v '_test\.go:' |
	grep -v '^\./internal/lattice/\|^\./bench/'; then
	echo "a per-node kernel 7 loop is back; take the moments through lattice.MomentsGroup" >&2
	exit 1
fi

# One coupling body, per stencil. The 64-calls-per-fiber-node API
# (AddForce / VelocityAt, one interface call per stencil point) is gone
# and must not creep back: no non-test file under internal/ declares or
# calls a method of either name. Spreading and interpolation go through
# grid.Coupling, one call per fiber node: SpreadNode and Interpolate on
# the engines' kernels 4 and 8, SpreadStencil / InterpolateStencil behind
# ibm.ForceAccumulator / ibm.VelocitySampler.
if grep -rn '\.AddForce(\|\.VelocityAt(\|) AddForce(\|) VelocityAt(' --include='*.go' internal |
	grep -v '_test\.go:'; then
	echo "a per-point coupling method is back; spread and interpolate per stencil (internal/grid/coupling.go)" >&2
	exit 1
fi

# One storage, split. Every engine steps a grid's distribution array
# and its 56 B ρ/u/F records (grid.Grid); the
# paper's 360 B node record, grid.Node, is the snapshot type only and must
# not creep back onto a step path: no non-test file of core or of an
# engine names it.
if grep -rn 'grid\.Node\b' --include='*.go' \
	internal/core internal/engine |
	grep -v '_test\.go:'; then
	echo "an engine names grid.Node; step the grid's split arrays (grid.Grid)" >&2
	exit 1
fi

# One population layout. A grid stores its populations direction-major
# (grid.Grid.Dist: value q of entry e at q·S + e, S the grid's stride),
# so that one direction of four consecutive nodes is one vector and a
# stream of one direction moves whole runs; the node-major array of
# 152 B records must not come back onto a step path: outside the
# benchmark harness, no non-test Go file declares a slice of 19-value
# arrays ([][lattice.Q]float64, or [][Q]float64 inside
# internal/lattice). A snapshot keeps its per-node grid.Node records,
# whose DF is one node's array, not a slice of them.
if grep -rn '\[\]\[lattice\.Q\]float64\|\[\]\[19\]float64' --include='*.go' . |
	grep -v '_test\.go:' | grep -v '^\./bench/' ||
	grep -rn '\[\]\[Q\]float64' --include='*.go' internal/lattice | grep -v '_test\.go:'; then
	echo "a node-major population slice is back; index the grid's direction-major array" >&2
	exit 1
fi

# One fluid container. The slab and the cube layout are one type,
# grid.Grid, whose block extent is a parameter (grid.NewBlocked);
# internal/cube only keeps the names the benchmark harness compiles
# against, and no other non-test file may import it again.
if grep -rln '"lbmib/internal/cube"' --include='*.go' . | grep -v '_test\.go$' |
	grep -v '^\./bench/\|^\./internal/cube/'; then
	echo "a non-test file outside bench/ imports internal/cube; use grid.NewBlocked" >&2
	exit 1
fi

# One boundary body. Every stream resolves walls, wrap and the moving lid
# through core.StreamBC.Resolve, called only from the shared bodies
# (core.Streamer.Block pushes into the sequential engine's second array;
# core.AABlock, core.AAMomentsBlock and core.CanonicalizeBlocks stream in place);
# an engine that resolves a boundary itself can drift from the others: no
# non-test file outside internal/core calls it.
if grep -rn '\.Resolve(' --include='*.go' . | grep -v '^\./internal/core/' |
	grep -v '_test\.go:'; then
	echo "a boundary is resolved outside the shared bodies; stream through core.Streamer" >&2
	exit 1
fi

go test -race ./internal/core/... ./internal/fiber/... ./internal/telemetry/... ./internal/engine/... ./internal/perfmon/... ./internal/par/... ./internal/flightrec/... ./internal/grid/...

# The per-step sample as the facade takes it: during an observed step
# every worker writes its blocks' digest slots inside the collide sweep,
# and the coordinator reduces them after the join and hands the sample to
# the watchdog, the step log and the ring. Only the root package drives
# that path, so its sampled-step and digest tests run under the race
# detector too. So do the readers between steps: Checkpoint, Restore and
# the fluid writers format and decode on the engine's team, a chunk per
# worker, and the caller moves the buffers in chunk order
# (TestReadersAtTeamWidth).
go test -race -run 'TestObservedStepSamplesLiveLayout|TestStepLogNamesTheSampledStep|TestSampleIsOneDigestByEveryPath|TestFlightRecorderBundleOnInjectedFault|TestReadersAtTeamWidth' .

# Cross-engine differential smoke: 10 seeded cases on each of the three
# engine modes (sequential, omp and, on cube-divisible grids, cube),
# every engine's final checkpoint byte for byte equal to the sequential
# reference's; each round trip checkpoints one engine mid-run, restores
# onto the next engine at another thread count, and must finish on those
# same bytes.
go run ./cmd/lbmib-crosscheck -seeds 10

# Example smoke: the three examples on the cube engine — quickstart,
# tandem (two sheets) and cavity (walls on six faces and a moving lid) —
# poiseuille on every engine (above 2 % error against the analytic
# profile it fails), and movingsheet, the one example whose sheet moves
# freely, so kernels 4 and 8 run end to end (it fails unless the sheet's
# centroid advances and the maximum speed is finite and non-zero). Each
# exits non-zero when its own physics check fails. movingsheet writes its
# snapshots under TMPDIR, here a directory removed afterwards.
for ex in quickstart tandem cavity poiseuille; do
	go run ./examples/$ex >/dev/null
done
EXDIR=$(mktemp -d)
TMPDIR="$EXDIR" go run ./examples/movingsheet >/dev/null
rm -rf "$EXDIR"

# In-place step fuzz smoke: arbitrary tiny configurations through five
# OpenMP-schedule steps must never panic or produce a non-finite field.
go test -run '^$' -fuzz '^FuzzStep$' -fuzztime 5s ./internal/engine/

# Checkpoint decoder fuzz smoke: arbitrary bytes must never panic.
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s .

# Flight-recorder forensics smoke: a run driven far past the lattice's
# stability envelope must trip the watchdog, leave a post-mortem bundle,
# and lbmib-sim postmortem must decode it. The run is attributed, so the
# bundle carries the schema-versioned critical-path report; the
# fluid-only cube run crosses after_stream (its end_of_step barrier
# folds away without fibers).
FRDIR=$(mktemp -d)
if go run ./cmd/lbmib-sim -solver cube -threads 2 -nx 16 -ny 16 -nz 16 \
	-steps 60 -sheet "" -force 0.05 -flightrec "$FRDIR" -critpath; then
	echo "unstable run should have tripped the watchdog" >&2
	rm -rf "$FRDIR"
	exit 1
fi
test -f "$FRDIR/manifest.json"
grep -q '"schema": "lbmib-critpath/v1"' "$FRDIR/critpath.json"
grep -q '"site": "after_stream"' "$FRDIR/critpath.json"
go run ./cmd/lbmib-sim postmortem -ring 5 "$FRDIR"
rm -rf "$FRDIR"

# Replay smoke: a milder blow-up that outlives the recorder's step-64
# snapshot, so the bundle carries a real checkpoint. It must be a
# block-format checkpoint (version 3: the state without the force), its
# localization must find the flagged step (the ring keeps the flagged
# sample off its DigestEvery cadence: the run trips at step 73), and
# replaying it must reproduce the failure at the step the live run
# tripped.
FRDIR=$(mktemp -d)
if go run ./cmd/lbmib-sim -solver cube -threads 2 -nx 16 -ny 16 -nz 16 \
	-steps 300 -sheet "" -force 0.008 -flightrec "$FRDIR"; then
	echo "unstable run should have tripped the watchdog" >&2
	rm -rf "$FRDIR"
	exit 1
fi
test "$(head -c 8 "$FRDIR/checkpoint.bin")" = LBMIBCKP
grep -q '"found": true' "$FRDIR/localization.json"
go run ./cmd/lbmib-sim postmortem -replay "$FRDIR" | grep -q 'failure reproduced at step 73'
rm -rf "$FRDIR"

# Recorder-free watchdog smoke: the same unstable run with only the
# watchdog and the step log, which sample the live layout's digest
# without a flight recorder. It must stop non-zero, and the step log's
# last line must carry the violation localized to a cube.
WDLOG=$(mktemp)
if go run ./cmd/lbmib-sim -solver cube -threads 2 -nx 16 -ny 16 -nz 16 \
	-sheet "" -force 0.05 -watchdog -jsonl "$WDLOG"; then
	echo "unstable run should have tripped the watchdog" >&2
	rm -f "$WDLOG"
	exit 1
fi
tail -n 1 "$WDLOG" | grep -q '"unhealthy":{.*"cube":[0-9]'
rm -f "$WDLOG"

# Per-body benchmark smoke: BenchmarkInPlaceBodies times each stream body
# of internal/core by itself (in-place bodies in each phase,
# Canonicalize, the sequential push) on four block extents of one domain
# — the slab grid, k = 8 cubes and the pencils 8×8×32 and 4×64×32 —,
# on the 64³ walled cavity as slab and k = 8 cubes, and on a 54³ domain
# as k = 2, 3 and 9 cubes, whose rows end in a short group.
# One pass per case keeps it compiling and executing; its figures are
# not judged here.
go test -run '^$' -bench InPlaceBodies -benchtime 1x ./internal/core

# Node-kernel benchmark smoke: BenchmarkCollide times the Go kernel one
# node per call (the record and fold paths), a row's tail of one node
# on the vector body and on its Go twin, and the vector body and its Go
# twin four nodes per call
# (the record path with shared and per-lane tables, the fold and the
# observed fold), and the moments body the same ways (four nodes with
# shared and per-lane tables, a one-node tail), in ns/node; one pass of
# each row.
go test -run '^$' -bench Collide -benchtime 1x ./internal/lattice

# Coupling benchmark smoke: BenchmarkCoupling times the stencil, the
# spread, the gather, kernel 4 (SpreadBox) and kernel 8
# (MoveSheetNodes), vector and portable, on dense_ib's sheets; one pass
# of each row.
go test -run '^$' -bench Coupling -benchtime 1x ./internal/core

# Observed-step benchmark smoke: BenchmarkObservedStep times a step of
# sheet_cube's problem with and without the per-step digest, on the cube
# and omp engines; one step of each row.
go test -run '^$' -bench ObservedStep -benchtime 1x .

# Benchmark smoke: every workload of the repo benchmark (BENCHMARK.json)
# at smoke length. Each run verifies its engine against Sequential under
# the crosscheck contract, Checkpoint→Restore→step, and the VTK output
# against its header; any failed check exits non-zero.
go run ./bench -workload all -smoke
