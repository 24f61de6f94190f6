//go:build qbfdebug

package core

import (
	"context"
	"fmt"
	"slices"
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
		s.decide(enc(l))
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
	s.val[enc(1)], s.val[enc(-1)] = vTrue, vFalse // assigned but never pushed on the trail
	wantViolation(t, "not found on the trail", func() { s.deepCheck() })
}

func TestDeepCheckCatchesValueTableSkew(t *testing.T) {
	s := debugSolver(t)
	s.val[enc(-2)] = vFalse // ¬x2 false while x2 reads unassigned
	wantViolation(t, "neither both unassigned nor complementary", func() { s.deepCheck() })
}

func TestDeepCheckCatchesValueTableOffTrail(t *testing.T) {
	s := debugSolver(t)
	s.decide(enc(1))
	if ev, _ := s.propagateAll(); ev != evNone {
		t.Fatalf("decision x1 raised event %d", ev)
	}
	s.deepCheck() // healthy
	// The trail says x1, the table says ¬x1.
	s.val[enc(1)], s.val[enc(-1)] = vFalse, vTrue
	wantViolation(t, "trail literal 1 is not true", func() { s.deepCheck() })
}

// solvedSolver returns debugFormula driven to an empty-matrix solution by
// the decisions x1, ¬x2, y3, each propagated to its fixpoint, and the ref
// of the clause (¬x1 ∨ y3 ∨ x4), which only y3 satisfies. Its cover takes
// x1 from (x1 ∨ x2), y3 from that clause and ¬x2 from (¬x2 ∨ ¬y3 ∨ ¬x4).
func solvedSolver(t *testing.T) (*Solver, int) {
	t.Helper()
	s := debugSolver(t)
	for _, l := range []qbf.Lit{1, -2, 3} {
		s.decide(enc(l))
		ev, _ := s.propagateAll()
		if want := map[bool]event{false: evNone, true: evSolution}[l == 3]; ev != want {
			t.Fatalf("decision %d raised event %d, want %d", l, ev, want)
		}
	}
	for ci := 0; ci < s.origEnd; ci = s.ar.next(ci) {
		if s.ar.size(ci) == 3 && s.ar.sat(ci) == len(s.trail) {
			return s, ci
		}
	}
	t.Fatal("no clause is satisfied by y3 alone")
	return nil, 0
}

func TestDeepCheckCatchesCoverShortcutSkip(t *testing.T) {
	s, ci := solvedSolver(t)
	w := s.newWorkSet()
	s.coverCube(w) // healthy: the full walk agrees
	got := make([]qbf.Lit, 0, len(w.vars))
	for _, v := range w.vars {
		got = append(got, w.get(v).lit())
	}
	if want := []qbf.Lit{1, 3, -2}; !slices.Equal(got, want) {
		t.Fatalf("cover %v, want %v", got, want)
	}
	// A tag naming x1, which is not a literal of the clause: once x1 is in
	// the cover, the shortcut skips the clause and y3 goes missing.
	s.ar.setSat(ci, 1)
	wantViolation(t, "differs from the full walk", func() { s.coverCube(s.newWorkSet()) })
}

func TestDeepCheckCatchesCoverListDrift(t *testing.T) {
	s := debugSolver(t)
	base := &s.frames[0]
	base.cover = base.cover[1:] // the cover would skip the first clause
	wantViolation(t, "frame 0 cover lists", func() { s.deepCheck() })
}

// sessionSolver returns debugFormula as an incremental session holding the
// runtime clause (x1 ∨ x4) at depth 0 and (x1 ∨ ¬x4) in an open frame.
func sessionSolver(t *testing.T) *Solver {
	t.Helper()
	s, err := NewSolver(debugFormula(), Options{Incremental: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(mkClause(1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(mkClause(1, -4)); err != nil {
		t.Fatal(err)
	}
	if ev, _ := s.propagateAll(); ev != evNone {
		t.Fatalf("propagating the runtime clauses raised event %d", ev)
	}
	s.deepCheck() // healthy
	return s
}

func TestDeepCheckCatchesFrameSuffixBreak(t *testing.T) {
	s := sessionSolver(t)
	// x1's occurrence list ends with the depth-0 clause and then the
	// frame's; swapped, Pop would cut the wrong clause.
	occ := s.occ[enc(1)]
	occ[len(occ)-1], occ[len(occ)-2] = occ[len(occ)-2], occ[len(occ)-1]
	wantViolation(t, "out of install order", func() { s.deepCheck() })
}

func TestDeepCheckCatchesRuntimeOrderBreak(t *testing.T) {
	s := sessionSolver(t)
	// Each clause on the other frame's list: Pop would cut the depth-0
	// clause and keep the frame's.
	base, top := s.frames[0].clauses, s.frames[1].clauses
	base[0], top[0] = top[0], base[0]
	wantViolation(t, "frame 0 tracks ref", func() { s.deepCheck() })
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
		s.checkLearnedConstraint(codes(1, 3), false)
	})
}

func TestCheckLearnedCatchesUnreducedCube(t *testing.T) {
	s := debugSolver(t)
	// [y3, x4] with trailing existential x4: existential reduction must
	// have deleted x4 before the cube is learned.
	wantViolation(t, "not existentially reduced", func() {
		s.checkLearnedConstraint(codes(3, 4), true)
	})
}

func TestCheckLearnedAcceptsReducedConstraints(t *testing.T) {
	s := debugSolver(t)
	s.checkLearnedConstraint(codes(1, 2), false)      // existential-only clause
	s.checkLearnedConstraint(codes(-1, -3, 4), false) // y3 guarded by x4
	s.checkLearnedConstraint(codes(1, 3), true)       // x1 ≺ y3 guards the cube
}

// codes encodes DIMACS literals.
func codes(lits ...qbf.Lit) []code {
	out := make([]code, len(lits))
	for i, l := range lits {
		out[i] = enc(l)
	}
	return out
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
	if len(s.frames[1].assumed) != 1 || !s.assertRoot() {
		t.Fatalf("x1 was not taken as a root assumption: %v", s.frames[1].assumed)
	}
	if ev, _ := s.propagateAll(); ev != evNone {
		t.Fatalf("asserting x1 raised event %d", ev)
	}
	s.deepCheck() // healthy
	return s
}

func TestDeepCheckCatchesStaleAssumptionEntry(t *testing.T) {
	s := assumedSolver(t)
	if _, err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	// A Pop that dropped the assumption but kept its trail entry.
	s.assign(enc(1), reasonAssumption, -1)
	if ev, _ := s.propagateAll(); ev != evNone {
		t.Fatalf("re-asserting x1 raised event %d", ev)
	}
	wantViolation(t, "asserts no live assumption", func() { s.deepCheck() })
}

func TestDeepCheckCatchesUnassertedAssumption(t *testing.T) {
	s := assumedSolver(t)
	// A live assumption that the fixpoint never asserted.
	s.frames[1].assumed = append(s.frames[1].assumed, enc(-2))
	wantViolation(t, "is not true at a fixpoint", func() { s.deepCheck() })
}

func TestDeepCheckCatchesUnitListDrift(t *testing.T) {
	s, err := NewSolver(phpFormula(3), Options{Incremental: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	// Solve inside a frame and pop it: the learned clauses carry tag 0 and
	// survive, and the Pop leaves the quiescent empty trail.
	if _, err := s.Push(); err != nil {
		t.Fatal(err)
	}
	if v := s.Solve(context.Background()); v != False {
		t.Fatalf("php3 verdict %v, want False", v)
	}
	if _, err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	s.deepCheck() // healthy
	for i, ci := range s.units {
		if !s.ar.deleted(ci) && s.ar.learned(ci) {
			// A list without the unit: the next Solve would not assert it.
			s.units = append(s.units[:i], s.units[i+1:]...)
			wantViolation(t, fmt.Sprintf("live unit constraint %d is missing from units", ci), func() { s.deepCheck() })
			return
		}
	}
	t.Fatal("php3 learned no unit — the check is vacuous")
}
