//go:build qbfdebug

package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/qbf"
)

// Tests in this file run only under -tags qbfdebug and prove that the deep
// invariant checker is live: it accepts a healthy solver and panics with an
// "invariant violated" message on deliberately corrupted internal state.

func debugFormula() *qbf.QBF {
	p := qbf.NewPrenexPrefix(4,
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1, 2}},
		qbf.Run{Quant: qbf.Forall, Vars: []qbf.Var{3}},
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{4}})
	return qbf.New(p, []qbf.Clause{
		mkClause(1, 2), mkClause(-1, 3, 4), mkClause(-2, -3, -4)})
}

func debugSolver(t *testing.T) *Solver {
	t.Helper()
	s, err := NewSolver(debugFormula(), Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantViolation(t *testing.T, fragment string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("deep checker did not fire (want panic containing %q)", fragment)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, fragment) {
			t.Fatalf("panic %v, want an invariant violation containing %q", r, fragment)
		}
	}()
	f()
}

func TestInvariantsCompiledUnderTag(t *testing.T) {
	if !InvariantsCompiled() {
		t.Fatal("built with -tags qbfdebug but InvariantsCompiled() is false")
	}
}

func TestDeepCheckAcceptsHealthyState(t *testing.T) {
	s := debugSolver(t)
	s.deepCheck() // must not panic
	if r := s.Solve(context.Background()); r == Unknown {
		t.Fatal("tiny instance must be decided")
	}
}

func TestDeepCheckCatchesCounterCorruption(t *testing.T) {
	s := debugSolver(t)
	s.ar.setSat(0, s.ar.sat(0)+1) // ref 0 is the first original clause
	wantViolation(t, "satisfaction tag stale", func() { s.deepCheck() })
}

func TestDeepCheckCatchesSatStackDisorder(t *testing.T) {
	s := debugSolver(t)
	// x1 satisfies (x1 ∨ x2) at trail position 0; ¬x2 satisfies
	// (¬x2 ∨ ¬y3 ∨ ¬x4) at position 1. Each decision is propagated to its
	// fixpoint, so the stack holds the two clauses tagged 1 and 2.
	for _, l := range []qbf.Lit{1, -2} {
		s.decide(l)
		if ev, _ := s.propagateAll(); ev != evNone {
			t.Fatalf("decision %d raised event %d", l, ev)
		}
	}
	s.deepCheck() // healthy
	if len(s.satStack) != 2 {
		t.Fatalf("satStack holds %d clauses, want 2", len(s.satStack))
	}
	s.satStack[0], s.satStack[1] = s.satStack[1], s.satStack[0]
	wantViolation(t, "out of tag order", func() { s.deepCheck() })
}

func TestDeepCheckCatchesPhantomAssignment(t *testing.T) {
	s := debugSolver(t)
	s.value[1] = vTrue // assigned but never pushed on the trail
	wantViolation(t, "", func() { s.deepCheck() })
}

func TestDeepCheckCatchesBlockCorruption(t *testing.T) {
	s := debugSolver(t)
	s.blocks[0].unassigned--
	wantViolation(t, "unassigned", func() { s.deepCheck() })
}

func TestDeepCheckCatchesMatrixCorruption(t *testing.T) {
	s := debugSolver(t)
	s.numUnsatOriginal--
	wantViolation(t, "numUnsatOriginal", func() { s.deepCheck() })
}

func TestCheckLearnedCatchesUnreducedClause(t *testing.T) {
	s := debugSolver(t)
	// {x1, y3} with trailing universal y3 (nothing existential after it):
	// a clause that universal reduction must never let through.
	wantViolation(t, "not universally reduced", func() {
		s.checkLearnedConstraint([]qbf.Lit{1, 3}, false)
	})
}

func TestCheckLearnedCatchesUnreducedCube(t *testing.T) {
	s := debugSolver(t)
	// [y3, x4] with trailing existential x4: existential reduction must
	// have deleted x4 before the cube is learned.
	wantViolation(t, "not existentially reduced", func() {
		s.checkLearnedConstraint([]qbf.Lit{3, 4}, true)
	})
}

func TestCheckLearnedAcceptsReducedConstraints(t *testing.T) {
	s := debugSolver(t)
	s.checkLearnedConstraint([]qbf.Lit{1, 2}, false)      // existential-only clause
	s.checkLearnedConstraint([]qbf.Lit{-1, -3, 4}, false) // y3 guarded by x4
	s.checkLearnedConstraint([]qbf.Lit{1, 3}, true)       // x1 ≺ y3 guards the cube
}

// assumedSolver returns debugFormula as an incremental session with one
// frame open and the root assumption x1 asserted and propagated to a
// quiescent fixpoint, which the checker accepts.
func assumedSolver(t *testing.T) *Solver {
	t.Helper()
	s, err := NewSolver(debugFormula(), Options{Incremental: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(); err != nil {
		t.Fatal(err)
	}
	if err := s.Assume(1); err != nil {
		t.Fatal(err)
	}
	if len(s.assumps) != 1 || !s.assertAssumptions() {
		t.Fatalf("x1 was not taken as a root assumption: %v", s.assumps)
	}
	if ev, _ := s.propagateAll(); ev != evNone {
		t.Fatalf("asserting x1 raised event %d", ev)
	}
	s.deepCheck() // healthy
	return s
}

func TestDeepCheckCatchesStaleAssumption(t *testing.T) {
	s := assumedSolver(t)
	stale := s.assumps
	if _, err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	s.deepCheck() // healthy: the Pop dropped the assumption and its entry
	// A Pop that left its frame's assumption on the list.
	s.assumps = stale
	wantViolation(t, "depth 1 outside", func() { s.deepCheck() })
}

func TestDeepCheckCatchesStaleAssumptionEntry(t *testing.T) {
	s := assumedSolver(t)
	if _, err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	// A Pop that dropped the assumption but kept its trail entry.
	s.assign(1, reasonAssumption, -1)
	if ev, _ := s.propagateAll(); ev != evNone {
		t.Fatalf("re-asserting x1 raised event %d", ev)
	}
	wantViolation(t, "asserts no live assumption", func() { s.deepCheck() })
}

func TestDeepCheckCatchesAssumptionBelowMark(t *testing.T) {
	s := assumedSolver(t)
	// The frame claims to have opened after x1 was asserted, so popping it
	// would leave the entry of its own assumption behind.
	s.frames[0].mark = s.trailPos[1] + 1
	wantViolation(t, "below its frame 1 mark", func() { s.deepCheck() })
}

func TestDeepCheckCatchesUnassertedAssumption(t *testing.T) {
	s := assumedSolver(t)
	// A live assumption that the fixpoint never asserted.
	s.assumps = append(s.assumps, assumption{lit: -2, depth: 1})
	wantViolation(t, "is not true at a fixpoint", func() { s.deepCheck() })
}
