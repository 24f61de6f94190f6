#!/bin/sh
# check.sh — the single verification gate for this repository.
#
# Runs, in order:
#   1. go build            (everything compiles, including qbfdebug)
#   2. go vet              (stock static analysis)
#   3. gofmt check         (no unformatted files)
#   4. qbflint             (project-specific rules L1-L15, type-checked
#                          over every library and cmd package across all
#                          build-tag variants, see DESIGN.md §6)
#   5. qbflint -gate hotpath
#                          (L13: compiler escape analysis over the
#                          //qbf:hotpath-annotated functions in
#                          internal/telemetry and internal/core; any
#                          "escapes to heap" inside an annotated function
#                          fails; a toolchain whose -m output the parser
#                          cannot read degrades to a warning, not a
#                          failure)
#   6. go test -race       (full suite under the race detector, including
#                          the portfolio differential and metamorphic
#                          layers and the exchange-ring stress tests)
#   7. go test -tags qbfdebug -race
#                          (solver + harness + portfolio suites with deep
#                          invariant checking, import oracle re-derivation,
#                          and the fault-injection hook live)
#   8. server + gate chaos suites
#                          (the solve service and the qbfgate front tier
#                          under -tags qbfdebug -race: hundreds of
#                          concurrent requests with fault injection,
#                          breaker trips and recovery, backend kill/hang/
#                          flap storms, total-outage cache degradation,
#                          oracle agreement, drain under load — see
#                          DESIGN.md §10 and §11)
#   9. solver differential + incremental metamorphic
#                          (the strategy/mode combo agreement suites, the
#                          fixed-pool differential, the push/pop/assume
#                          metamorphic suites, and the watcher
#                          fault-injection stress under -tags qbfdebug
#                          -race with the deep checker's watcher
#                          invariants armed; any verdict disagreement
#                          against the oracle fails. Also the
#                          block-marking reductions against the pairwise
#                          definition of universal/existential reduction
#                          on random tree and prenex prefixes: any
#                          difference in the dropped literals or their
#                          order fails. The same tests also run inside
#                          steps 6-7; this step names them so a
#                          search-soundness failure is unmistakable — see
#                          DESIGN.md §7 and §12)
#  10. go test -fuzz smoke (5s fuzz each of the QDIMACS/QTREE reader, the
#                          service request decoder, the clause-arena
#                          op-stream model, and the session journal reader
#                          — arbitrary bytes must recover the longest
#                          valid record prefix, never panic; the
#                          checked-in corpora replay in step 6 already)
#  11. tracing overhead    (builds with -tags qbfnotrace, then compares the
#                          end-to-end BenchmarkSolveTraceOverhead between
#                          the default build — hooks compiled in, tracer
#                          nil — and the qbfnotrace build, alternating the
#                          two binaries run-for-run so transient load hits
#                          both minima equally; fails when the min-of-runs
#                          ratio exceeds QBF_OVERHEAD_TOLERANCE, default
#                          1.02, i.e. 2% — see DESIGN.md §9)
#  12. session chaos       (the sticky-session protocol under -tags
#                          qbfdebug -race: seq races across goroutines,
#                          busy-session shedding, contained-panic
#                          retirement with breaker trips and recovery,
#                          journal recovery after in-process crash stops,
#                          and a concurrent session storm against the
#                          one-shot oracle — see DESIGN.md §12 and §13)
#  13. crash-recovery chaos
#                          (the real qbfd binary under -tags qbfdebug
#                          -race: the fault hook SIGKILLs the daemon at a
#                          chosen journal append mid-storm, a restart over
#                          the same journal directory recovers every
#                          session, the stranded clients reconnect on
#                          their own, and all verdicts agree with the
#                          oracle ladder — see DESIGN.md §13)
#  14. perfbench smoke     (builds the benchmark and runs each of its
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

echo "==> go vet ./..."
go vet ./...

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
# The gcflags are pinned here so the escape-diagnostic format the parser
# expects is requested explicitly, not inherited from toolchain defaults.
go run ./cmd/qbflint -gate hotpath -gcflags '-m -m' ./internal/telemetry ./internal/core

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -tags qbfdebug -race ./internal/core/... ./internal/bench/... ./internal/portfolio/... ./internal/server/... ./internal/gate/..."
go test -tags qbfdebug -race ./internal/core/... ./internal/bench/... ./internal/portfolio/... ./internal/server/... ./internal/gate/...

echo "==> solver differential + incremental metamorphic (qbfdebug, race, watcher invariants)"
go test -tags qbfdebug -race -count=1 \
    -run 'TestComboAgreement|TestFixedSuiteDifferential|TestIncremental|TestWatcherInvariantsUnderFaultInjection|TestReduceSetMatchesPairwise' \
    ./internal/core/

echo "==> go test -fuzz=FuzzRead -fuzztime=5s ./internal/qdimacs/"
go test -run '^$' -fuzz=FuzzRead -fuzztime=5s ./internal/qdimacs/

echo "==> go test -fuzz=FuzzArena -fuzztime=5s ./internal/core/"
go test -run '^$' -fuzz=FuzzArena -fuzztime=5s ./internal/core/

echo "==> go test -fuzz=FuzzSolveRequest -fuzztime=5s ./internal/server/"
go test -run '^$' -fuzz=FuzzSolveRequest -fuzztime=5s ./internal/server/

echo "==> go test -fuzz=FuzzJournal -fuzztime=5s ./internal/journal/"
go test -run '^$' -fuzz=FuzzJournal -fuzztime=5s ./internal/journal/

echo "==> go build -tags qbfnotrace ./..."
go build -tags qbfnotrace ./...

echo "==> disabled-tracing overhead smoke (nil-tracer build vs qbfnotrace build)"
# Min of several runs filters scheduler noise; the ratio bounds what the
# compiled-in (but disabled) hooks may cost relative to a build with the
# hooks removed entirely. The two builds are precompiled once and then
# alternated run-for-run: sequential per-build batches let a single load
# spike (GC of the fuzz corpus from step 10, a background compile) skew
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
