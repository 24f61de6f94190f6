package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/qbf"
)

// qbfCase wraps a random QBF for testing/quick generation.
type qbfCase struct {
	Q *qbf.QBF
}

func (qbfCase) Generate(r *rand.Rand, size int) reflect.Value {
	if size < 4 {
		size = 4
	}
	if size > 11 {
		size = 11
	}
	return reflect.ValueOf(qbfCase{Q: qbf.RandomQBF(r, size, size)})
}

// TestQuickSolveMatchesOracle is the quick.Check form of the differential
// test: the default PO configuration must agree with the semantic oracle.
func TestQuickSolveMatchesOracle(t *testing.T) {
	prop := func(c qbfCase) bool {
		want, ok := qbf.EvalWithBudget(c.Q, 1_000_000)
		if !ok {
			return true
		}
		rRes, err := Solve(context.Background(), c.Q, Options{CheckInvariants: true})
		r := rRes.Verdict
		if err != nil {
			return false
		}
		return (r == True) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSolveDeterministic: solving the same formula twice gives the
// same result and the same decision count (the engine has no hidden
// randomness).
func TestQuickSolveDeterministic(t *testing.T) {
	prop := func(c qbfCase) bool {
		r1Res, err1 := Solve(context.Background(), c.Q, Options{CheckInvariants: true})
		r1, st1 := r1Res.Verdict, r1Res.Stats
		r2Res, err2 := Solve(context.Background(), c.Q, Options{CheckInvariants: true})
		r2, st2 := r2Res.Verdict, r2Res.Stats
		if err1 != nil || err2 != nil {
			return false
		}
		return r1 == r2 && st1.Decisions == st2.Decisions &&
			st1.Conflicts == st2.Conflicts && st1.Solutions == st2.Solutions
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickModesAgree: PO and TO must coincide on prenex inputs under
// random option combinations.
func TestQuickModesAgree(t *testing.T) {
	prop := func(seed int64, noCl, noCu, noPure bool) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomPrenexQBF(rng, 10, 16, 5)
		opt := Options{
			DisableClauseLearning: noCl,
			DisableCubeLearning:   noCu,
			DisablePureLiterals:   noPure,
			CheckInvariants:       true,
		}
		opt.Mode = ModePartialOrder
		rPORes, err := Solve(context.Background(), q, opt)
		rPO := rPORes.Verdict
		if err != nil {
			return false
		}
		opt.Mode = ModeTotalOrder
		rTORes, err := Solve(context.Background(), q, opt)
		rTO := rTORes.Verdict
		if err != nil {
			return false
		}
		return rPO == rTO
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickWorkSet checks the sparse working set against a reference map
// implementation under random operation sequences.
func TestQuickWorkSet(t *testing.T) {
	prop := func(ops []int16) bool {
		s := &Solver{nVars: 20}
		w := s.newWorkSet()
		ref := map[qbf.Var]qbf.Lit{}
		for _, op := range ops {
			n := int(op)
			if n < 0 {
				n = -n
			}
			v := qbf.VarOf(n%20 + 1)
			switch {
			case op%3 == 0: // add positive
				w.add(enc(v.PosLit()))
				ref[v] = v.PosLit()
			case op%3 == 1: // add negative (overwrites)
				w.add(enc(v.NegLit()))
				ref[v] = v.NegLit()
			default: // delete
				w.del(uint32(v))
				delete(ref, v)
			}
		}
		if len(w.vars) != len(ref) {
			return false
		}
		for v, l := range ref {
			if !w.has(uint32(v)) || w.get(uint32(v)) != enc(l) {
				return false
			}
		}
		for _, c := range w.slice() {
			if l := c.lit(); ref[l.Var()] != l {
				return false
			}
		}
		// Reset must clear everything.
		w2 := s.newWorkSet()
		return len(w2.vars) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFootnote5Variant solves the paper's footnote-5 strengthening of
// formula (1): adding the clauses {y1,x1,x2} and {y2,x3,x4} removes the
// pure-literal escape for y1, y2, so the example exercises genuine
// branching on the universals. All configurations must still agree.
func TestFootnote5Variant(t *testing.T) {
	matrix := []qbf.Clause{
		{1, 3, 4}, {-2, 3, -4}, {-3, 4}, {-1, -3, -4},
		{1, 6, 7}, {-5, 6, -7}, {-6, 7}, {-1, -6, -7},
		{2, 3, 4}, // footnote 5: {y1, x1, x2}
		{5, 6, 7}, // footnote 5: {y2, x3, x4}
	}
	tree := qbf.NewPrefix(7)
	root := tree.AddBlock(nil, qbf.Exists, 1)
	y1 := tree.AddBlock(root, qbf.Forall, 2)
	tree.AddBlock(y1, qbf.Exists, 3, 4)
	y2 := tree.AddBlock(root, qbf.Forall, 5)
	tree.AddBlock(y2, qbf.Exists, 6, 7)
	q := qbf.New(tree, matrix)

	want := qbf.Eval(q)
	for _, opt := range allOptionCombos(ModePartialOrder) {
		rRes, err := Solve(context.Background(), q, opt)
		r, st := rRes.Verdict, rRes.Stats
		if err != nil {
			t.Fatal(err)
		}
		if (r == True) != want {
			t.Fatalf("opts %+v: %v, oracle %v", opt, r, want)
		}
		if !opt.DisablePureLiterals && opt.DisableClauseLearning && st.Decisions == 0 {
			t.Error("footnote-5 instance should require branching")
		}
	}
}
