#!/bin/sh
# check.sh — the single verification gate for this repository.
#
# Runs, in order:
#   1. go build            (everything compiles, including qbfdebug)
#   2. go vet              (stock static analysis, copylocks included,
#                          under the default, qbfdebug and qbfnotrace
#                          builds, and inside the perfbench module)
#   3. gofmt check         (no unformatted files)
#   4. qbflint             (project-specific rules L1-L8, L10, L12, L14
#                          and L15, type-checked over every library and
#                          cmd package across all build-tag variants, see
#                          DESIGN.md §6)
#   5. qbflint -gate hotpath
#                          (L13: compiler escape analysis over the nine
#                          //qbf:hotpath-annotated functions in
#                          internal/telemetry and internal/core; any
#                          "escapes to heap" inside an annotated function
#                          fails; a toolchain whose -m output the parser
#                          cannot read degrades to a warning, not a
#                          failure)
#   6. go test -race       (full suite under the race detector, including
#                          the differential and metamorphic layers)
#   7. go test -tags qbfdebug -race
#                          (solver + harness suites with deep invariant
#                          checking and the fault-injection hook live;
#                          and the server + gate chaos suites: the solve
#                          service and the qbfgate front tier under
#                          hundreds of concurrent requests with fault
#                          injection, breaker trips and recovery, backend
#                          kill/hang/flap storms, total-outage cache
#                          degradation, oracle agreement, drain under
#                          load — see DESIGN.md §10 and §11)
#   8. solver differential + incremental metamorphic
#                          (the strategy/mode combo agreement suites, the
#                          fixed-pool differential, the push/pop/assume
#                          metamorphic suites — root assumptions
#                          included — the seed-125610 session replay
#                          (TestIncrementalRuntimeClauseWatches), and the
#                          watcher fault-injection stress under -tags
#                          qbfdebug -race with the deep checker's
#                          watcher, frame, unit-list and assumption
#                          invariants armed; any verdict disagreement
#                          against the oracle fails. With them the deep
#                          checker's own tests: it accepts healthy state
#                          and recomputes each empty-matrix cover by the
#                          full walk, and each check — value table, the
#                          frames' cover lists, cover shortcut, the
#                          occurrence-suffix property Pop relies on, a
#                          clause on the wrong frame's list, the unit
#                          list, stale and unasserted assumptions — fires
#                          on a planted violation.
#                          Also the block-marking reductions against the
#                          pairwise definition of universal/existential
#                          reduction on random tree and prenex prefixes: any
#                          difference in the dropped literals or their
#                          order fails. The same core tests also run
#                          inside steps 6-7; this step names them so a
#                          search-soundness failure is unmistakable. Then
#                          internal/dia's incremental ladder and variant
#                          sweep under the same tags with the deep
#                          checker on the sessions, in -short mode: the
#                          full sweep's counter3 φ4 base takes minutes
#                          under the checker and the race detector; step
#                          6 runs the full sweep and its decision
#                          ceiling — see DESIGN.md §7 and §12. Last,
#                          TestSearchCountsGolden: every ScaleSmoke suite
#                          instance solved PO and TO under a node limit,
#                          its verdict and search counts compared with
#                          internal/bench/testdata/search_counts.golden,
#                          so a change that alters the search fails here
#                          by name, and TestSessionCountsGolden: one line
#                          per session Solve (the incremental ladders and
#                          the variant sweeps of internal/dia), compared
#                          with internal/dia/testdata/session_counts.golden.
#                          With them TestPaperShape, the paper's
#                          shape in decisions under the same node-limit
#                          discipline: PO at most TO on the smoke DIA
#                          suite and per model (dme, ring, semaphore) on
#                          the default one, and below TO on the default
#                          NCF hard corner (VAR 16, CLS/VAR >= 4,
#                          LPC >= 4). Then the path from formula text to a
#                          ready solver: NewSolver against the reference
#                          pipeline (Clone, NormalizeMatrix, Validate,
#                          BindFreeVars, ScopeConsistent, UniversalReduce)
#                          on damaged random formulas, error texts and
#                          their precedence included; IsPrenex and
#                          Validate against their pairwise and map
#                          definitions; the linear-time guards (IsPrenex
#                          on 200k-variable chains, NewSolver on a
#                          200k-literal clause, buildSpec's prenex check
#                          on a mode=to request, Pop of a 200k-clause
#                          frame, 100k empty Push/Pop pairs over 100k
#                          depth-0 clauses), each under a wall bound a
#                          quadratic step misses by minutes, and
#                          NewSolver's bytes on alternating chains of 1k
#                          and 4k blocks, which must grow linearly; and the
#                          allocation tests: ReadString plus NewSolver on
#                          four times the clauses may cost at most four
#                          more allocations, and on a padded body with id
#                          2^20 ReadString may allocate at most 12 bytes
#                          per id, ReadString plus the gate's cache Key at
#                          most 32 (TestDecodeBytesPerID) — see DESIGN.md
#                          §3.2)
#   9. go test -fuzz smoke (5s fuzz each of the QDIMACS/QTREE reader, the
#                          service request decoder, the clause-arena
#                          op-stream model, and the session journal reader
#                          — arbitrary bytes must recover the longest
#                          valid record prefix, never panic — and, under
#                          -tags qbfdebug, session scripts: FuzzSession
#                          decodes a formula and a push/pop/assume/add/
#                          solve script from its input and checks every
#                          Solve against a fresh solve and the oracle
#                          with the deep checker on; the checked-in
#                          corpora replay in step 6 already)
#  10. tracing overhead    (builds with -tags qbfnotrace, then compares the
#                          end-to-end BenchmarkSolveTraceOverhead between
#                          the default build — hooks compiled in, tracer
#                          nil — and the qbfnotrace build, alternating the
#                          two binaries run-for-run so transient load hits
#                          both minima equally; fails when the min-of-runs
#                          ratio exceeds QBF_OVERHEAD_TOLERANCE, default
#                          1.02, i.e. 2% — see DESIGN.md §9)
#  11. session chaos       (the sticky-session protocol under -tags
#                          qbfdebug -race: seq races across goroutines,
#                          busy-session shedding, contained-panic
#                          retirement with breaker trips and recovery,
#                          journal recovery after in-process crash stops,
#                          and a concurrent session storm against the
#                          one-shot oracle — see DESIGN.md §12 and §13)
#  12. crash-recovery chaos
#                          (the real qbfd binary under -tags qbfdebug
#                          -race: the fault hook SIGKILLs the daemon at a
#                          chosen journal append mid-storm, a restart over
#                          the same journal directory recovers every
#                          session, the stranded clients reconnect on
#                          their own, and all verdicts agree with the
#                          oracle ladder — see DESIGN.md §13)
#  13. perfbench smoke     (builds the benchmark and runs each of its
#                          three workloads — paper-batch, dia-ladder,
#                          serve-mix — for 3 seconds untraced; perfbench
#                          exits non-zero on any verdict that disagrees
#                          with its reference, and the build fails when
#                          a repository API the benchmark uses changes —
#                          see perfbench/README.md)
#
# Exits non-zero at the first failing step. Run from anywhere inside the
# repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go build -tags qbfdebug ./..."
go build -tags qbfdebug ./...

echo "==> go vet ./... (default, qbfdebug and qbfnotrace builds)"
go vet ./...
go vet -tags qbfdebug ./...
go vet -tags qbfnotrace ./...

echo "==> go vet ./... in perfbench/"
(cd perfbench && go vet ./...)

echo "==> gofmt -l ."
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "unformatted files:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "==> qbflint ./..."
go run ./cmd/qbflint ./...

echo "==> qbflint -gate hotpath (L13 allocation gate)"
go run ./cmd/qbflint -gate hotpath ./internal/telemetry ./internal/core

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -tags qbfdebug -race ./internal/core/... ./internal/bench/... ./internal/server/... ./internal/gate/..."
go test -tags qbfdebug -race ./internal/core/... ./internal/bench/... ./internal/server/... ./internal/gate/...

echo "==> solver differential + incremental metamorphic (qbfdebug, race, watcher, frame, unit-list and assumption invariants) + deep-checker planted violations + search and session counts goldens + paper shape + construction path, bytes per id and Pop linear guards"
go test -tags qbfdebug -race -count=1 \
    -run 'TestComboAgreement|TestFixedSuiteDifferential|TestIncremental|TestIncrementalRuntimeClauseWatches|TestWatcherInvariantsUnderFaultInjection|TestReduceSetMatchesPairwise|TestDeepCheck' \
    ./internal/core/
go test -tags qbfdebug -race -count=1 -short \
    -run 'TestVariantSweepBeatsOneShot|TestIncrementalDiameterMatchesOneShot' \
    ./internal/dia/
go test -count=1 -run 'TestSearchCountsGolden|TestPaperShape' ./internal/bench/
go test -count=1 -run TestSessionCountsGolden ./internal/dia/
go test -count=1 -run 'TestConstructionMatchesReference|TestNewSolverLinear|TestConstructionAllocsFlat|TestPopLinearFrame|TestPopLinearEmptyFrames' \
    ./internal/core/
go test -count=1 -run 'TestIsPrenexMatchesPairwise|TestValidateMatchesMapReference|TestIsPrenexLinear' \
    ./internal/qbf/
go test -count=1 -run TestBuildSpecLinearPrenexCheck ./internal/server/
go test -count=1 -run TestDecodeBytesPerID ./internal/gate/

echo "==> go test -fuzz=FuzzRead -fuzztime=5s ./internal/qdimacs/"
go test -run '^$' -fuzz=FuzzRead -fuzztime=5s ./internal/qdimacs/

echo "==> go test -fuzz=FuzzArena -fuzztime=5s ./internal/core/"
go test -run '^$' -fuzz=FuzzArena -fuzztime=5s ./internal/core/

echo "==> go test -fuzz=FuzzSolveRequest -fuzztime=5s ./internal/server/"
go test -run '^$' -fuzz=FuzzSolveRequest -fuzztime=5s ./internal/server/

echo "==> go test -fuzz=FuzzJournal -fuzztime=5s ./internal/journal/"
go test -run '^$' -fuzz=FuzzJournal -fuzztime=5s ./internal/journal/

echo "==> go test -tags qbfdebug -fuzz=FuzzSession -fuzztime=5s ./internal/core/"
go test -tags qbfdebug -run '^$' -fuzz=FuzzSession -fuzztime=5s ./internal/core/

echo "==> go build -tags qbfnotrace ./..."
go build -tags qbfnotrace ./...

echo "==> disabled-tracing overhead smoke (nil-tracer build vs qbfnotrace build)"
# Min of several runs filters scheduler noise; the ratio bounds what the
# compiled-in (but disabled) hooks may cost relative to a build with the
# hooks removed entirely. The two builds are precompiled once and then
# alternated run-for-run: sequential per-build batches let a single load
# spike (GC of the fuzz corpus from step 9, a background compile) skew
# one whole side and fail the ratio spuriously, while interleaving spreads
# any transient over both minima equally.
ovdir=$(mktemp -d)
trap 'rm -rf "$ovdir"' EXIT
go test -c -o "$ovdir/hooked.test" ./internal/core/
go test -c -tags qbfnotrace -o "$ovdir/stripped.test" ./internal/core/
for i in 1 2 3 4 5 6; do
    for side in hooked stripped; do
        "$ovdir/$side.test" -test.run '^$' -test.bench BenchmarkSolveTraceOverhead \
            -test.benchtime 0.3s >> "$ovdir/$side.out"
    done
done
overhead_min() {
    awk '/BenchmarkSolveTraceOverhead/ { if (min == "" || $3 < min) min = $3 } END { print min }' "$1"
}
hooked=$(overhead_min "$ovdir/hooked.out")
stripped=$(overhead_min "$ovdir/stripped.out")
echo "    hooked   ${hooked} ns/op"
echo "    stripped ${stripped} ns/op"
echo "$hooked $stripped ${QBF_OVERHEAD_TOLERANCE:-1.02}" | awk '{
    ratio = $1 / $2
    printf "    ratio    %.4f (tolerance %.2f)\n", ratio, $3
    if (ratio > $3) { print "disabled tracing regresses past tolerance" > "/dev/stderr"; exit 1 }
}'

echo "==> session chaos (qbfdebug, race)"
go test -tags qbfdebug -race -count=1 -run 'TestSession|TestJournal|TestDrainTombstones' \
    ./internal/server/ ./internal/server/client/

echo "==> crash-recovery chaos (qbfdebug, race, real daemon, SIGKILL mid-storm)"
go test -tags qbfdebug -race -count=1 -run 'TestChaosCrashRecovery|TestDaemonJournalRecovery' \
    ./cmd/qbfd/

echo "==> perfbench smoke (paper-batch, dia-ladder, serve-mix; 3s each)"
for workload in paper-batch dia-ladder serve-mix; do
    bash perfbench/run.sh --workload "$workload" --seconds 3 --trace 0
done

echo "All checks passed."
