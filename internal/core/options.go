// Package core implements the paper's primary contribution: a search based
// Q-DLL/QCDCL decision procedure for QBFs that does not require the input
// to be in prenex form. The engine works directly on the partial prefix
// order ≺ of a quantifier tree, using the generalized contradictory-clause
// rule (Lemma 4), the generalized unit rule (Lemma 5), universal/existential
// reduction (Lemma 3 and its dual), clause (nogood) and cube (good)
// learning, pure literal fixing, and the two branching heuristics of
// Section VI:
//
//   - ModeTotalOrder reproduces QUBE(TO): literals are ranked by
//     (prefix level, score, id), the configuration meaningful for prenex
//     inputs;
//   - ModePartialOrder reproduces QUBE(PO): the score of a literal is its
//     occurrence counter plus the maximum score one alternation deeper in
//     its scope, which guarantees ≺-ancestors are branched before their
//     descendants while degrading to VSIDS on SAT instances.
//
// The same engine runs in both modes — exactly the comparison the paper
// performs — so measured differences come from the quantifier structure
// available to the heuristic and to learning, not from unrelated
// implementation details.
package core

import (
	"time"

	"repro/internal/result"
	"repro/internal/telemetry"
)

// Mode selects the branching heuristic.
type Mode int

const (
	// ModePartialOrder is QUBE(PO): scores propagate up the quantifier
	// tree (Section VI), exploiting the partial prefix order.
	ModePartialOrder Mode = iota
	// ModeTotalOrder is QUBE(TO): literals are ranked primarily by prefix
	// level, the classic prenex-solver queue.
	ModeTotalOrder
)

func (m Mode) String() string {
	if m == ModeTotalOrder {
		return "TO"
	}
	return "PO"
}

// Options configures a Solver. The zero value enables every inference
// (both learning mechanisms and pure literal fixing) in partial-order mode
// with no resource limits.
//
// Propagation is quantifier-aware watched literals over the arena clause
// store: each clause watches its two ≺-deepest unfalsified existentials,
// with any universal guard literal keeping universal reduction implicit;
// cubes run the dual scheme.
type Options struct {
	Mode Mode

	// Incremental enables the push/pop session lifecycle: Push, Pop,
	// Assume and AddClause may be called between Solve calls, learned
	// clauses are tagged with the deepest assumption frame they depend on,
	// and popping a frame drops exactly the constraints that cited it (see
	// incremental.go). Construction differs in one way: a formula that is
	// trivially decided at build time keeps a fully initialized solver (so
	// later AddClause calls can un-trivialize it). Root-level pure-literal
	// fixing stays on: every session operation unwinds the whole trail, so
	// the next Solve judges purity against the formula it solves.
	Incremental bool

	// DisableClauseLearning turns off nogood learning; conflicts then
	// backtrack chronologically.
	DisableClauseLearning bool
	// DisableCubeLearning turns off good learning; solutions then
	// backtrack chronologically.
	DisableCubeLearning bool
	// DisablePureLiterals turns off pure (monotone) literal fixing.
	DisablePureLiterals bool

	// MaxLearned bounds the number of learned clauses (and, separately,
	// cubes) kept; when exceeded, inactive learned constraints are
	// discarded. 0 means the default (4000).
	MaxLearned int

	// NodeLimit bounds the number of decisions; 0 means unlimited.
	NodeLimit int64
	// TimeLimit bounds wall-clock solving time; 0 means unlimited.
	TimeLimit time.Duration
	// MemLimit bounds the estimated bytes held by learned constraints; 0
	// means unlimited. When the learned databases exceed the budget the
	// solver first degrades gracefully — an aggressive learned-DB
	// reduction of both clauses and cubes, regardless of MaxLearned — and
	// only stops (Unknown, StopMemLimit) if a single reduction round
	// cannot get back under the budget.
	MemLimit int64

	// CheckInvariants enables the deep self-checker: at construction the
	// prefix tree is validated (structural well-formedness, algebraic laws
	// of ≺, agreement of the solver's O(1) order test with Prefix.Before),
	// and at every propagation fixpoint the trail, the per-block
	// bookkeeping and the residual-matrix state of the original clauses
	// are recomputed from scratch and compared. Violations panic via
	// invariant.Violated. The checks are compiled only under the qbfdebug
	// build tag; without the tag this flag is a no-op, so production
	// binaries pay nothing.
	CheckInvariants bool

	// Telemetry, when non-nil, receives a structured event stream from the
	// search: decisions, propagation fixpoints, conflicts, solutions,
	// learning, reductions, restarts, frame operations, governor actions,
	// and the final stop — each stamped with the decision level and a
	// prefix-depth attribution. nil (the default) disables telemetry; the
	// hot-path cost of the disabled state is one nil-check per event site,
	// and a build with -tags qbfnotrace compiles the sites out entirely
	// (the baseline scripts/check.sh measures overhead against).
	Telemetry *telemetry.Tracer
}

// The outcome vocabulary — Verdict, StopReason, Stats, and the unified
// Result struct — is shared with the bench harness and the solve service
// and lives in internal/result; core aliases it under its historical names
// so existing callers keep compiling.

// Verdict is the outcome of a solve call: Unknown, True, or False.
type Verdict = result.Verdict

// StopReason explains an Unknown verdict; see result.StopReason.
type StopReason = result.StopReason

// Stats reports search effort; see result.Stats.
type Stats = result.Stats

// Result pairs the verdict of a run with its statistics; it is what the
// context-first package entry points return. See result.Result.
type Result = result.Result

// Verdict values, re-exported for callers of this package.
const (
	Unknown = result.Unknown
	True    = result.True
	False   = result.False
)

// StopReason values, re-exported for callers of this package.
const (
	StopNone      = result.StopNone
	StopTimeout   = result.StopTimeout
	StopNodeLimit = result.StopNodeLimit
	StopMemLimit  = result.StopMemLimit
	StopCancelled = result.StopCancelled
	StopPanicked  = result.StopPanicked
)
