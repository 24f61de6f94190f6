package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/lineartest"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
)

// referenceConstruct is NewSolver's construction as it was first written,
// kept as the reference: Clone → NormalizeMatrix → Validate → BindFreeVars
// → ScopeConsistent → (ModeTotalOrder) IsPrenex → UniversalReduce per
// clause. IsPrenex itself is held to the pairwise definition by qbf's
// TestIsPrenexMatchesPairwise. It returns the clauses a solver installs, in
// installation order, its trivial verdict, and whether a contradictory
// clause made an incremental solver's base frame false; or the error.
func referenceConstruct(q *qbf.QBF, opt Options) ([]qbf.Clause, Verdict, bool, error) {
	work := q.Clone()
	work.NormalizeMatrix()
	if err := work.Validate(); err != nil {
		return nil, Unknown, false, fmt.Errorf("core: invalid input: %w", err)
	}
	work.BindFreeVars()
	work.Prefix.Finalize()
	if _, err := work.ScopeConsistent(); err != nil {
		return nil, Unknown, false, fmt.Errorf("core: input not scope-consistent: %w", err)
	}
	if opt.Mode == ModeTotalOrder && !work.Prefix.IsPrenex() {
		return nil, Unknown, false, fmt.Errorf("core: total-order mode requires a prenex QBF; prenex the input first")
	}
	var out []qbf.Clause
	falseBase := false
	for _, c := range work.Matrix {
		rc := qbf.UniversalReduce(work.Prefix, c)
		if work.Contradictory(rc) {
			if !opt.Incremental {
				return out, False, false, nil
			}
			falseBase = true
			continue
		}
		out = append(out, rc)
	}
	if len(out) == 0 && !opt.Incremental {
		return out, True, false, nil
	}
	return out, Unknown, falseBase, nil
}

// installedOriginals returns the solver's original clauses in arena
// order, each sorted (watch placement permutes a clause's literals).
func installedOriginals(s *Solver) []qbf.Clause {
	var out []qbf.Clause
	for ci := 0; ci < s.ar.end(); ci = s.ar.next(ci) {
		c := make(qbf.Clause, s.ar.size(ci))
		for k := range c {
			c[k] = s.ar.lit(ci, k).lit()
		}
		slices.Sort(c)
		out = append(out, c)
	}
	return out
}

// mutateMatrix damages a formula the ways real inputs are damaged:
// duplicated literals, tautologies, zero and unrepresentable literals,
// free variables, clauses across incomparable scopes or with only
// universals, empty clauses, and clauses over every variable (reducible
// universals included).
func mutateMatrix(rng *rand.Rand, q *qbf.QBF) {
	n := q.Prefix.MaxVar()
	lit := func() qbf.Lit {
		l := qbf.VarOf(1 + rng.Intn(n)).PosLit()
		if rng.Intn(2) == 0 {
			l = l.Neg()
		}
		return l
	}
	for i, c := range q.Matrix {
		c = c.Clone()
		switch rng.Intn(24) {
		case 0:
			c = append(c, c...) // every literal twice
		case 1:
			if len(c) > 0 {
				c = append(c, c[rng.Intn(len(c))].Neg()) // tautology
			}
		case 2:
			c = append(c, qbf.NoLit)
		case 3:
			if rng.Intn(8) == 0 {
				c = append(c, qbf.Lit(math.MinInt)) // its variable is negative
			}
		case 4, 5:
			c = append(c, qbf.VarOf(n+1+rng.Intn(3)).PosLit()) // free
		case 6, 7:
			c = append(c, lit(), lit()) // often across scopes
		case 8:
			c = c[:0] // the empty clause
		case 9:
			for v := qbf.MinVar; v.Int() <= n; v++ {
				c = append(c, v.NegLit())
			}
		case 10:
			var us qbf.Clause // universals only
			for _, l := range c {
				if q.Prefix.QuantOf(l.Var()) == qbf.Forall {
					us = append(us, l)
				}
			}
			c = us
		}
		rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
		q.Matrix[i] = c
	}
}

// TestConstructionMatchesReference holds NewSolver to referenceConstruct
// on random trees and prenex prefixes, damaged by mutateMatrix, in both
// modes, one-shot and incremental: the same error text (so the same error
// precedence), or the same installed clauses in the same order, the same
// clause count, the same trivial verdict and the same base-frame falsity.
func TestConstructionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1901))
	seen := map[string]int{}
	for i := 0; i < 3000; i++ {
		var q *qbf.QBF
		if i%2 == 0 {
			q = qbf.RandomQBF(rng, 10, 8)
		} else {
			q = randomPrenexQBF(rng, 10, 8, 4)
		}
		mutateMatrix(rng, q)
		for _, opt := range []Options{
			{Mode: ModePartialOrder}, {Mode: ModeTotalOrder},
			{Mode: ModePartialOrder, Incremental: true}, {Mode: ModeTotalOrder, Incremental: true},
		} {
			in := q.String()
			want, wantV, wantFalseBase, wantErr := referenceConstruct(q, opt)
			s, err := NewSolver(q, opt)
			if q.String() != in {
				t.Fatalf("case %d: NewSolver modified its input\nbefore %s\nafter  %s", i, in, q)
			}
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("case %d %+v: error %v, reference %v\n%s", i, opt, err, wantErr, in)
			}
			if err != nil {
				seen[strings.SplitN(err.Error(), ":", 3)[1]]++
				continue
			}
			got := installedOriginals(s)
			if len(got) != len(want) || s.nOriginalClauses != len(want) {
				t.Fatalf("case %d %+v: %d clauses installed (count %d), reference %d\n%s",
					i, opt, len(got), s.nOriginalClauses, len(want), in)
			}
			for k := range want {
				w := slices.Clone(want[k])
				slices.Sort(w)
				if !slices.Equal(got[k], w) {
					t.Fatalf("case %d %+v: clause %d is %v, reference %v\n%s", i, opt, k, got[k], w, in)
				}
			}
			if s.trivial != wantV || s.frames[0].contradiction != wantFalseBase {
				t.Fatalf("case %d %+v: trivial %v base contradiction %v, reference %v %v\n%s",
					i, opt, s.trivial, s.frames[0].contradiction, wantV, wantFalseBase, in)
			}
			seen["verdict "+wantV.String()]++
			if wantFalseBase {
				seen["false base"]++
			}
		}
	}
	// Every outcome must be well represented for the comparison to cover
	// the error precedence and the verdicts.
	for _, k := range []string{" invalid input", " input not scope-consistent",
		" total-order mode requires a prenex QBF; prenex the input first",
		"verdict FALSE", "verdict TRUE", "verdict UNKNOWN", "false base"} {
		if seen[k] < 30 {
			t.Errorf("only %d cases with outcome %q: %v", seen[k], k, seen)
		}
	}
}

// TestNewSolverLinearWideClause installs one clause of 100k outer
// existential and 100k inner universal literals: universal reduction must
// drop every universal without comparing the pairs.
func TestNewSolverLinearWideClause(t *testing.T) {
	const side = 100_000
	ex, un := make([]qbf.Var, side), make([]qbf.Var, side)
	c := make(qbf.Clause, 0, 2*side)
	for i := range ex {
		ex[i], un[i] = qbf.VarOf(i+1), qbf.VarOf(side+i+1)
		c = append(c, ex[i].PosLit(), un[i].NegLit())
	}
	p := qbf.NewPrenexPrefix(2*side, qbf.Run{Quant: qbf.Exists, Vars: ex}, qbf.Run{Quant: qbf.Forall, Vars: un})
	q := qbf.New(p, []qbf.Clause{c})
	for _, mode := range []Mode{ModePartialOrder, ModeTotalOrder} {
		var s *Solver
		var err error
		lineartest.Within(t, fmt.Sprintf("NewSolver (%v) on a 200k-literal clause", mode), func() { s, err = NewSolver(q, Options{Mode: mode}) })
		if err != nil {
			t.Fatal(err)
		}
		if s.nOriginalClauses != 1 || s.ar.size(0) != side {
			t.Fatalf("%v: %d clauses, first of size %d; want the %d existentials", mode, s.nOriginalClauses, s.ar.size(0), side)
		}
	}
}

// TestNewSolverLinearDeepChain builds solvers over alternating chains of
// 1,000 and 4,000 one-variable blocks under one clause over every
// variable. Four times the blocks may cost about four times the bytes,
// not sixteen: no per-block structure may list every block above or below
// it.
func TestNewSolverLinearDeepChain(t *testing.T) {
	allocated := func(blocks int) uint64 {
		p := qbf.NewPrefix(blocks)
		var b *qbf.Block
		c := make(qbf.Clause, 0, blocks)
		for v := 1; v <= blocks; v++ {
			quant := qbf.Exists
			if v%2 == 0 {
				quant = qbf.Forall
			}
			b = p.AddBlock(b, quant, qbf.VarOf(v))
			c = append(c, qbf.VarOf(v).PosLit())
		}
		q := qbf.New(p, []qbf.Clause{c})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewSolver(q, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(1000), allocated(4000)
	t.Logf("NewSolver allocates %d bytes for 1,000 alternating blocks, %d for 4,000", small, large)
	if large > 6*small {
		t.Errorf("4x the blocks cost %.1fx the bytes: construction is not linear in the prefix", float64(large)/float64(small))
	}
}

// flatFormula renders a prenex ∃∀∃ formula over 60 variables with the
// given number of 3-literal clauses, each with an innermost existential.
func flatFormula(clauses int) string {
	rng := rand.New(rand.NewSource(int64(clauses)))
	runs := []qbf.Run{{Quant: qbf.Exists}, {Quant: qbf.Forall}, {Quant: qbf.Exists}}
	for v := 1; v <= 60; v++ {
		runs[(v-1)/20].Vars = append(runs[(v-1)/20].Vars, qbf.VarOf(v))
	}
	lit := func(lo int) qbf.Lit {
		l := qbf.VarOf(lo + rng.Intn(60-lo+1)).PosLit()
		if rng.Intn(2) == 0 {
			l = l.Neg()
		}
		return l
	}
	m := make([]qbf.Clause, clauses)
	for i := range m {
		m[i] = qbf.Clause{lit(1), lit(1), lit(41)}
	}
	text, err := qdimacs.WriteString(qbf.New(qbf.NewPrenexPrefix(60, runs...), m))
	if err != nil {
		panic(err)
	}
	return text
}

// TestConstructionAllocsFlat pins the allocation count of the path from
// text to a ready solver: four times the clauses may cost no more than a
// few extra allocations (slab growth), not a few per clause.
func TestConstructionAllocsFlat(t *testing.T) {
	for _, mode := range []Mode{ModePartialOrder, ModeTotalOrder} {
		allocs := func(clauses int) float64 {
			text := flatFormula(clauses)
			return testing.AllocsPerRun(5, func() {
				q, err := qdimacs.ReadString(text)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := NewSolver(q, Options{Mode: mode}); err != nil {
					t.Fatal(err)
				}
			})
		}
		n, n4 := allocs(2000), allocs(8000)
		t.Logf("%v: %.0f allocations for 2000 clauses, %.0f for 8000", mode, n, n4)
		if n4 > n+4 {
			t.Errorf("%v: %.0f allocations for 2000 clauses, %.0f for 8000: the count grows with the clauses", mode, n, n4)
		}
	}
}
