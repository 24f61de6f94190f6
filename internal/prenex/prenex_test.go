package prenex

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/qbf"
)

// paperFormula9 builds the quantifier tree of the paper's formula (9):
// ∃x(∀y1∃x1∀y2∃x2 ϕ0 ∧ ∀y1'∃x1' ϕ1 ∧ ∃x1” ϕ2), with the numbering
// x=1, y1=2, x1=3, y2=4, x2=5, y1'=6, x1'=7, x1”=8.
func paperFormula9() *qbf.QBF {
	p := qbf.NewPrefix(8)
	x := p.AddBlock(nil, qbf.Exists, 1)
	y1 := p.AddBlock(x, qbf.Forall, 2)
	x1 := p.AddBlock(y1, qbf.Exists, 3)
	y2 := p.AddBlock(x1, qbf.Forall, 4)
	p.AddBlock(y2, qbf.Exists, 5)
	y1p := p.AddBlock(x, qbf.Forall, 6)
	p.AddBlock(y1p, qbf.Exists, 7)
	p.AddBlock(x, qbf.Exists, 8)
	p.Finalize()
	matrix := []qbf.Clause{
		{1, 2, -3, 4, 5}, {-2, 3, -5}, // ϕ0
		{1, -6, 7}, {6, -7}, // ϕ1
		{-1, 8}, // ϕ2
	}
	return qbf.New(p, matrix)
}

// slotSignature renders a prenex prefix as level→sorted vars for comparing
// against the paper's expected placements.
func slotSignature(q *qbf.QBF) map[int][]qbf.Var {
	out := make(map[int][]qbf.Var)
	for _, b := range q.Prefix.Blocks() {
		vars := append([]qbf.Var(nil), b.Vars...)
		for i := 1; i < len(vars); i++ {
			for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
				vars[j], vars[j-1] = vars[j-1], vars[j]
			}
		}
		out[b.Level()] = append(out[b.Level()], vars...)
	}
	return out
}

func sameVars(a, b []qbf.Var) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[qbf.Var]int{}
	for _, v := range a {
		seen[v]++
	}
	for _, v := range b {
		seen[v]--
		if seen[v] < 0 {
			return false
		}
	}
	return true
}

// TestPaperEquation10 pins the outcome of the four strategies on formula
// (9) to the prefixes listed in equation (10) of the paper.
func TestPaperEquation10(t *testing.T) {
	q := paperFormula9()
	want := map[Strategy]map[int][]qbf.Var{
		EUpAUp: {
			1: {1, 8}, 2: {2, 6}, 3: {3, 7}, 4: {4}, 5: {5},
		},
		EUpADown: {
			1: {1, 8}, 2: {2, 6}, 3: {3, 7}, 4: {4}, 5: {5},
		},
		EDownAUp: {
			1: {1}, 2: {2, 6}, 3: {3}, 4: {4}, 5: {5, 7, 8},
		},
		EDownADown: {
			1: {1}, 2: {2}, 3: {3}, 4: {4, 6}, 5: {5, 7, 8},
		},
	}
	for strat, sig := range want {
		got := Apply(q, strat)
		if !got.Prefix.IsPrenex() {
			t.Errorf("%v: result not prenex", strat)
		}
		gs := slotSignature(got)
		if len(gs) != len(sig) {
			t.Errorf("%v: got %d levels, want %d (%v)", strat, len(gs), len(sig), gs)
			continue
		}
		for lvl, vars := range sig {
			if !sameVars(gs[lvl], vars) {
				t.Errorf("%v level %d: got %v, want %v", strat, lvl, gs[lvl], vars)
			}
		}
	}
}

func TestApplyPreservesOrderAndLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 150; i++ {
		q := qbf.RandomQBF(rng, 12, 10)
		origLevel := q.Prefix.MaxLevel()
		for _, strat := range Strategies {
			r := Apply(q, strat)
			if !r.Prefix.IsPrenex() {
				t.Fatalf("iteration %d %v: not prenex: %v", i, strat, r.Prefix)
			}
			// The prenex prefix must extend ≺.
			for _, a := range q.Prefix.Vars() {
				for _, b := range q.Prefix.Vars() {
					if q.Prefix.Before(a, b) && !r.Prefix.Before(a, b) {
						t.Fatalf("iteration %d %v: order %d ≺ %d lost\nfrom %v\nto   %v",
							i, strat, a, b, q.Prefix, r.Prefix)
					}
				}
			}
			// Prenex-optimality: at most one extra level (one may be
			// needed when sibling roots mix quantifiers at level 1).
			if got := r.Prefix.MaxLevel(); got > origLevel+1 {
				t.Fatalf("iteration %d %v: level %d from %d", i, strat, got, origLevel)
			}
		}
	}
}

func TestApplyPreservesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 120; i++ {
		q := qbf.RandomQBF(rng, 9, 8)
		want := qbf.Eval(q)
		for _, strat := range Strategies {
			r := Apply(q, strat)
			if got := qbf.Eval(r); got != want {
				t.Fatalf("iteration %d %v: value changed %v→%v\nfrom %v\nto   %v",
					i, strat, want, got, q, r)
			}
		}
	}
}

func TestMiniscopePreservesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 150; i++ {
		q := qbf.RandomQBF(rng, 9, 8)
		want := qbf.Eval(q)
		m := Miniscope(q)
		if _, err := m.ScopeConsistent(); err != nil {
			t.Fatalf("iteration %d: miniscoped formula inconsistent: %v", i, err)
		}
		if got := qbf.Eval(m); got != want {
			t.Fatalf("iteration %d: value changed %v→%v\nfrom %v\nto   %v",
				i, want, got, q, m)
		}
	}
}

func TestMiniscopeSeparatesIndependentParts(t *testing.T) {
	// ∃x1 ∀y2 ∃x3 with two independent halves: (x1 ∨ y2) and (x3).
	// Miniscoping must make x3 and y2 incomparable.
	p := qbf.NewPrenexPrefix(3,
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1}},
		qbf.Run{Quant: qbf.Forall, Vars: []qbf.Var{2}},
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{3}})
	q := qbf.New(p, []qbf.Clause{{1, 2}, {1, -2}, {3, 1}, {-3, 1}})
	m := Miniscope(q)
	if m.Prefix.Comparable(3, 2) {
		t.Errorf("x3 and y2 must become incomparable: %v", m.Prefix)
	}
	if qbf.Eval(m) != qbf.Eval(q) {
		t.Error("miniscoping changed the value")
	}
}

func TestMiniscopeSingleClauseRules(t *testing.T) {
	// ∃x1: clause {x1, 2free?}: use bound-only. ∃x1 (x1 ∨ ¬x1) is a
	// tautology and normalization would drop it; instead: ∃x1 ∀y2 with
	// y2's scope a single clause {y2, x1}: the ∀ rule deletes y2 from it;
	// then x1's scope is the single clause {x1}: the ∃ rule deletes the
	// clause. An unrelated pair keeps the matrix nonempty.
	p := qbf.NewPrenexPrefix(4,
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1, 3}},
		qbf.Run{Quant: qbf.Forall, Vars: []qbf.Var{2, 4}})
	q := qbf.New(p, []qbf.Clause{
		{2, 1},          // y2's only clause → y2 removed → {x1}, then ∃ rule drops it
		{3, 4}, {3, -4}, // keep x3/y4 alive
	})
	m := Miniscope(q)
	if len(m.Matrix) != 2 {
		t.Fatalf("got %d clauses, want 2: %v", len(m.Matrix), m.Matrix)
	}
	if m.Prefix.Bound(1) || m.Prefix.Bound(2) {
		t.Errorf("x1 and y2 must vanish from the prefix: %v", m.Prefix)
	}
	if qbf.Eval(m) != qbf.Eval(q) {
		t.Error("single-clause rules changed the value")
	}
}

func TestMiniscopeUniversalEmptyClause(t *testing.T) {
	// ∀y1 with scope a single clause {y1}: deleting y1 empties the clause
	// and the formula becomes false.
	p := qbf.NewPrenexPrefix(1, qbf.Run{Quant: qbf.Forall, Vars: []qbf.Var{1}})
	q := qbf.New(p, []qbf.Clause{{1}})
	m := Miniscope(q)
	if qbf.Eval(m) {
		t.Error("∀y (y) must stay false after miniscoping")
	}
}

func TestPOTOShare(t *testing.T) {
	// The paper's prefix (3): y1 vs {x3,x4} and y2 vs {x1,x2} are the
	// incomparable ∃/∀ pairs: 4 of 2·5 = 10 pairs → 0.4.
	p := qbf.NewPrefix(7)
	root := p.AddBlock(nil, qbf.Exists, 1)
	y1 := p.AddBlock(root, qbf.Forall, 2)
	p.AddBlock(y1, qbf.Exists, 3, 4)
	y2 := p.AddBlock(root, qbf.Forall, 5)
	p.AddBlock(y2, qbf.Exists, 6, 7)
	q := qbf.New(p, nil)
	if got := POTOShare(q); got != 0.4 {
		t.Errorf("POTOShare = %v, want 0.4", got)
	}
	// A prenex prefix has share 0.
	pq := Apply(q, EUpAUp)
	if got := POTOShare(pq); got != 0 {
		t.Errorf("prenex POTOShare = %v, want 0", got)
	}
}

func TestMiniscopeThenSolveAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 60; i++ {
		q := qbf.RandomQBF(rng, 10, 9)
		m := Miniscope(q)
		// Re-prenexing the miniscoped tree must also preserve the value.
		for _, strat := range Strategies {
			r := Apply(m, strat)
			if qbf.Eval(r) != qbf.Eval(q) {
				t.Fatalf("iteration %d: miniscope+%v changed the value", i, strat)
			}
		}
	}
}

func TestParseStrategy(t *testing.T) {
	want := map[string]Strategy{"eu-au": EUpAUp, "eu-ad": EUpADown, "ed-au": EDownAUp, "ed-ad": EDownADown}
	for name, s := range want {
		got, err := ParseStrategy(name)
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, s)
		}
	}
	for _, name := range []string{"", "EU-AU", "eu-au ", "Eup-Aup"} {
		_, err := ParseStrategy(name)
		if err == nil || err.Error() != "unknown strategy "+strconv.Quote(name) {
			t.Errorf("ParseStrategy(%q) error = %v", name, err)
		}
	}
}
