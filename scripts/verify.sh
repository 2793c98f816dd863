#!/bin/sh
# Tier-1 verification: build + full test suite, static checks, the race
# detector on the packages where concurrency bugs would hide (telemetry
# sinks are called from every worker thread; the cube solver owns the
# P×Q×R barrier choreography; the omp and cube engines stream one shared
# distribution array in place from worker threads, and every worker
# spreads fiber forces into the box of fluid it owns (a race here means
# two owned boxes overlap); the in-place and spread bodies they share
# live in core; the fused engine's wavefront sweep overlaps in-place streaming
# and the moments of neighbouring planes across one parallel region; all three parallel engines run
# their workers on par's team; the perfmon profile — Table I/II
# accumulators, step ring and crossing ring of the critical-path report
# — is written from all workers; par's timed barrier wraps the team
# barrier; perfsim, cachesim and machine are left out: they start no
# goroutine and use no channel or atomic, so racing them checks nothing,
# and perfsim's cache replays were most of the race step's wall time),
# a seeded cross-engine differential sweep, three native-fuzz
# smokes, the flight-recorder smoke (whose bundle must carry the
# critical-path report), a bundle-replay smoke, a recorder-free watchdog
# smoke, and the repo benchmark's verification pass on every workload.
#
# The barrier choreography is held twice: barriercheck (in the lint pass)
# proves every thread of the cube and fused engines reaches every
# barrier site, and the engines' bitwise-vs-Sequential tests under the
# race detector below fail when a barrier that orders something is
# removed or folded — which is what makes a fold (cube's after_spread
# and end_of_step in fluid-only runs, fused's probe-only end-of-sweep
# barrier) legal.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go test ./...
go vet ./...
go vet -stdmethods=false ./...
test -z "$(gofmt -l .)"

# Domain-aware static analysis: lbmib-lint proves the lock discipline,
# barrier choreography, in-place phase contract, float-comparison policy,
# and probe nil-guards the race detector can only sample. The repo
# must be finding-free (reviewed exemptions carry //lint:allow), the
# analyzers themselves must still catch every seeded defect in the
# golden-bad corpus, and the event contract must keep pointing one way:
# no sink package depends on an engine, and fused takes no names from
# cubesolver.
scripts/lint ./...
go test -run 'TestAnalyzersGoldenCorpus|TestLintSelfHost|TestImportDirection' ./internal/analysis/

# One collision arithmetic, and it stays lean. (1) The unrolled node
# kernel indexes a *[19]T with constants only; a bounds check the
# compiler could not remove there is a silent 2x on every engine, so the
# compiler's own report must name no line of kernel.go. Collide and
# Moments are generic, and a generic function is compiled where it is
# instantiated, so the report is taken over the instantiating packages.
# (2) No engine composes a collision out of the oracle functions:
# outside tests, only initialisation (grid, cube) names them.
if go build -gcflags='-d=ssa/check_bce/debug=1' ./internal/lattice/ ./internal/core/ ./internal/fused/ 2>&1 | grep 'kernel\.go'; then
	echo "bounds check in the unrolled node kernel (internal/lattice/kernel.go)" >&2
	exit 1
fi
if grep -rn 'lattice\.\(Equilibrium\|GuoForce\)' --include='*.go' \
	internal/core internal/fused internal/omp internal/cubesolver |
	grep -v '_test\.go:'; then
	echo "an engine package restates the collision arithmetic; call lattice.Collide" >&2
	exit 1
fi

# One coupling body, per stencil. The 64-calls-per-fiber-node API
# (AddForce / VelocityAt, one interface call per stencil point) is gone
# and must not creep back: no non-test file under internal/ declares or
# calls a method of either name. Spreading and interpolation go through
# ibm.ForceAccumulator.SpreadStencil / ibm.VelocitySampler.InterpolateStencil.
if grep -rn '\.AddForce(\|\.VelocityAt(\|) AddForce(\|) VelocityAt(' --include='*.go' internal |
	grep -v '_test\.go:'; then
	echo "a per-point coupling method is back; spread and interpolate per stencil (internal/grid/coupling.go)" >&2
	exit 1
fi

# One storage, split. Every engine steps a layout's distribution array
# and its 56 B ρ/u/F records (core.Layout); the
# paper's 360 B node record, grid.Node, is the snapshot type only and must
# not creep back onto a step path: no non-test file of core or of an
# engine names it.
if grep -rn 'grid\.Node\b' --include='*.go' \
	internal/core internal/omp internal/cubesolver internal/fused |
	grep -v '_test\.go:'; then
	echo "an engine names grid.Node; step the layout's split arrays (core.Layout)" >&2
	exit 1
fi

# One boundary body. Every stream resolves walls, wrap and the moving lid
# through core.StreamBC.Resolve, called only from the shared bodies
# (core.Streamer.Block pushes into the sequential engine's second array;
# core.AABlock, core.AAMomentsBlock and core.Canonicalize stream in place);
# an engine that resolves a boundary itself can drift from the others: no
# non-test file outside internal/core calls it.
if grep -rn '\.Resolve(' --include='*.go' . | grep -v '^\./internal/core/' |
	grep -v '_test\.go:'; then
	echo "a boundary is resolved outside the shared bodies; stream through core.Streamer" >&2
	exit 1
fi

go test -race ./internal/core/... ./internal/fiber/... ./internal/telemetry/... ./internal/cubesolver/... ./internal/omp/... ./internal/fused/... ./internal/perfmon/... ./internal/par/... ./internal/flightrec/...

# Cross-engine differential smoke: 10 seeded cases on every engine,
# including the fused engine in both storage modes (every float64 engine
# bitwise equal to the sequential reference, float32 on the relaxed Tol32
# contract).
go run ./cmd/lbmib-crosscheck -seeds 10

# Fused-sweep fuzz smoke: arbitrary tiny configurations through five
# fused steps must never panic or produce a non-finite field.
go test -run '^$' -fuzz '^FuzzFusedStep$' -fuzztime 5s ./internal/fused/

# Checkpoint decoder fuzz smoke: arbitrary bytes must never panic.
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s .

# Lint loader fuzz smoke: arbitrary bytes through the single-file
# analysis pipeline must never panic either.
go test -run '^$' -fuzz '^FuzzLintParse$' -fuzztime 5s ./internal/analysis/

# Flight-recorder forensics smoke: a run driven far past the lattice's
# stability envelope must trip the watchdog, leave a post-mortem bundle,
# and lbmib-postmortem must decode it. The run is attributed, so the
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
go run ./cmd/lbmib-postmortem -ring 5 "$FRDIR"
rm -rf "$FRDIR"

# Replay smoke: a milder blow-up that outlives the recorder's step-64
# snapshot, so the bundle carries a real checkpoint. It must be a
# block-format checkpoint, and replaying it must reproduce the failure at
# the step the live run tripped.
FRDIR=$(mktemp -d)
if go run ./cmd/lbmib-sim -solver cube -threads 2 -nx 16 -ny 16 -nz 16 \
	-steps 300 -sheet "" -force 0.008 -flightrec "$FRDIR"; then
	echo "unstable run should have tripped the watchdog" >&2
	rm -rf "$FRDIR"
	exit 1
fi
test "$(head -c 8 "$FRDIR/checkpoint.bin")" = LBMIBCKP
go run ./cmd/lbmib-postmortem -replay "$FRDIR" | grep -q 'failure reproduced at step 73'
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

# Benchmark smoke: every workload of the repo benchmark (BENCHMARK.json)
# at smoke length. Each run verifies its engine against Sequential under
# the crosscheck contract, Checkpoint→Restore→step, and the VTK output
# against its header; any failed check exits non-zero.
go run ./bench -workload all -smoke
