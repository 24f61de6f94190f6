// Package telemetry is the solver's observability layer: a structured
// event stream (decisions, propagation fixpoints, conflicts/solutions,
// learning, reductions, restarts, governor actions, stops, and the
// service, gate, session and journal events above the solver), an atomic
// metrics registry exposable via expvar, and JSONL trace export with a
// replay/summarize reader.
//
// The paper's claims are about search *dynamics* — where in the prefix
// order the partial-order heuristic branches, how learning pays off per
// decision level — which end-of-run aggregates cannot show. Every event
// therefore carries the decision level and a prefix-depth attribution.
//
// Cost contract: a nil *Tracer is the disabled state. Every hot-path hook
// in the solver compiles down to a single nil-check and allocates
// nothing; the overhead against a build with the hooks compiled out
// entirely (-tags qbfnotrace) is gated below 2% by scripts/check.sh. With
// tracing enabled, Emit fills one stack-allocated Event, bumps one atomic
// counter, and hands the event to the sink; the bundled JSONL sink
// serializes without reflection into a reused buffer under a mutex, so
// concurrent emitters (the solve service's workers and the gate) can share
// one sink.
package telemetry

import "time"

// Kind identifies the event type.
type Kind uint8

const (
	// KindDecision: a heuristic branch opened a decision level.
	// A = the decision literal, B = cumulative decisions.
	KindDecision Kind = iota
	// KindFixpoint: a propagation fixpoint was reached (one per main-loop
	// iteration). A = trail length, B = fixpoint ordinal.
	KindFixpoint
	// KindConflict: a clause became contradictory (Lemma 4).
	// A = constraint id, B = constraint size.
	KindConflict
	// KindSolution: a cube fired or the matrix emptied.
	// A = constraint id (-1 for matrix-empty), B = constraint size.
	KindSolution
	// KindLearn: a constraint was learned.
	// A = length, B = 0 for a clause (nogood), 1 for a cube (good).
	KindLearn
	// KindReduce: universal/existential reduction removed literals from a
	// working constraint during analysis.
	// A = literals removed, B = 0 for universal (clause), 1 for
	// existential (cube) reduction.
	KindReduce
	// KindRestart: a Luby-scheduled restart abandoned the current branch.
	// A = Luby index, B = next restart limit.
	KindRestart
	// KindGovernor: the memory governor ran a forced reduction round.
	// A = learned bytes before, B = byte budget.
	KindGovernor
	// KindStop: a solve call returned. A = verdict (0 unknown / 1 true /
	// 2 false), B = stop reason (result.StopReason numbering).
	KindStop
	// KindAdmit: the solve service admitted a request into its work queue.
	// A = queue depth after admission, B = requests in flight.
	KindAdmit
	// KindShed: the solve service rejected a request before solving.
	// A = shed reason (server.ShedReason numbering), B = queue depth.
	KindShed
	// KindServe: the solve service completed a request. A = verdict,
	// B = stop reason — the same encoding as KindStop, one level up.
	KindServe
	// KindRoute: the gate dispatched a request attempt to a backend.
	// A = backend index, B = attempt ordinal (0 = primary, ≥1 = failover
	// or hedge).
	KindRoute
	// KindHedge: a hedged request pair resolved. A = 1 when the hedge won
	// (its verdict was used and the primary was cancelled), 0 when the
	// primary won; B = the hedge's backend index.
	KindHedge
	// KindCacheHit: the gate consulted its canonical-form verdict cache.
	// A = 1 hit / 0 miss, B = live entries after the lookup.
	KindCacheHit
	// KindFrame: an incremental solver ran a frame operation.
	// A = operation (0 push / 1 pop / 2 add-clause / 3 assume),
	// B = frame depth after the operation.
	KindFrame
	// KindSession: the solve service ran a sticky-session lifecycle event.
	// A = event (0 create / 1 solve / 2 close / 3 expire / 4 evict),
	// B = live sessions after the event.
	KindSession
	// KindJournal: the session write-ahead journal ran a lifecycle event.
	// A = event (0 append / 1 degrade / 2 recover / 3 compact /
	// 4 truncate), B = the event detail: lifetime appends, 0, sessions
	// recovered at boot, records in the compaction snapshot, and bytes
	// dropped truncating a torn tail, respectively.
	KindJournal

	numKinds // count sentinel; keep last
)

var kindNames = [numKinds]string{
	"decision", "fixpoint", "conflict", "solution", "learn", "reduce",
	"restart", "governor", "stop", "admit", "shed", "serve", "route",
	"hedge", "cachehit", "frame", "session", "journal",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString is the inverse of Kind.String; ok is false for an
// unknown name.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Kinds returns every defined kind in numeric order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Event is one structured telemetry record. Level is the decision level
// at emission; Depth is the prefix-depth attribution (the prefix level of
// the variable or constraint the event is about, 0 when not applicable).
// A and B carry the per-kind payload documented on the Kind constants.
type Event struct {
	T     int64 // nanoseconds since the tracer started
	Kind  Kind
	Level int32
	Depth int32
	A, B  int64
}

// Sink consumes events. Implementations must be safe for concurrent use:
// the solve service's workers and the gate share one sink. Emit must not
// retain the event past the call.
type Sink interface {
	Emit(e Event)
}

// Tracer binds a sink and a metrics registry to a time base. The zero of
// usefulness is the nil Tracer: every method on a nil receiver is a no-op,
// which is what makes the disabled hot path one pointer compare. Tracers
// are immutable after construction, so one tracer may be shared by
// concurrent emitters.
type Tracer struct {
	sink  Sink
	m     *Metrics
	start time.Time
}

// New returns a tracer emitting to sink (may be nil for metrics-only) and
// counting into m (may be nil for trace-only). Both nil yields a nil
// tracer, i.e. telemetry disabled.
func New(sink Sink, m *Metrics) *Tracer {
	if sink == nil && m == nil {
		return nil
	}
	return &Tracer{sink: sink, m: m, start: time.Now()}
}

// Emit records one event: the metrics counter for k is bumped and, when a
// sink is attached, a timestamped Event is delivered. Emit on a nil
// tracer is a no-op.
//
//qbf:hotpath
func (t *Tracer) Emit(k Kind, level, depth int, a, b int64) {
	if t == nil {
		return
	}
	if t.m != nil {
		t.m.inc(k)
	}
	if t.sink != nil {
		t.sink.Emit(Event{
			T:     time.Since(t.start).Nanoseconds(),
			Kind:  k,
			Level: int32(level),
			Depth: int32(depth),
			A:     a,
			B:     b,
		})
	}
}
